//! Hierarchy flattening for multi-model BLIF designs.
//!
//! The first `.model` in a file is the top; every `.subckt` is expanded
//! in place by renaming the child's nets: bound formals take the parent's
//! actual net, everything else gets a unique `model$N$` instance prefix.
//! Expansion is cycle-safe (a model may not instantiate itself, directly
//! or transitively) and budgeted in both depth and total instance count so
//! a hostile file cannot blow the stack or memory.

use std::collections::{HashMap, HashSet};

use super::stream::{RawDesign, RawLatch, RawModel};
use super::NamesBlock;
use crate::error::ParseBlifError;

/// Maximum `.subckt` nesting depth before flattening gives up.
pub(crate) const MAX_DEPTH: usize = 64;
/// Maximum total instantiations across the whole design.
pub(crate) const MAX_INSTANCES: usize = 4096;

/// A fully flattened model: plain nets, no remaining hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct FlatModel {
    pub name: String,
    pub inputs: Vec<String>,
    pub outputs: Vec<String>,
    pub blocks: Vec<NamesBlock>,
    pub latches: Vec<RawLatch>,
}

/// Per-instance net renaming: bound formals map to parent actuals, every
/// other net gets the instance prefix. The top model uses no renaming.
struct Rename {
    bound: HashMap<String, String>,
    prefix: String,
}

impl Rename {
    fn resolve(&self, net: &str) -> String {
        self.bound
            .get(net)
            .cloned()
            .unwrap_or_else(|| format!("{}{}", self.prefix, net))
    }
}

fn resolve(rename: Option<&Rename>, net: &str) -> String {
    match rename {
        None => net.to_owned(),
        Some(r) => r.resolve(net),
    }
}

struct Flattener<'a> {
    design: &'a RawDesign,
    /// Models currently on the instantiation stack (cycle detection).
    on_stack: Vec<bool>,
    instances: usize,
    /// Monotone counter making every instance prefix unique.
    counter: usize,
    flat: FlatModel,
}

impl Flattener<'_> {
    fn emit(
        &mut self,
        index: usize,
        rename: Option<&Rename>,
        depth: usize,
    ) -> Result<(), ParseBlifError> {
        let model = &self.design.models[index];
        for block in &model.blocks {
            self.flat.blocks.push(NamesBlock {
                inputs: block.inputs.iter().map(|n| resolve(rename, n)).collect(),
                output: resolve(rename, &block.output),
                cubes: block.cubes.clone(),
                on_set: block.on_set,
                line: block.line,
            });
        }
        for latch in &model.latches {
            self.flat.latches.push(RawLatch {
                line: latch.line,
                input: resolve(rename, &latch.input),
                output: resolve(rename, &latch.output),
                kind: latch.kind,
                control: latch.control.as_deref().map(|c| resolve(rename, c)),
                init: latch.init,
            });
        }
        for subckt in &model.subckts {
            let child_index =
                self.design
                    .model_index(&subckt.model)
                    .ok_or_else(|| ParseBlifError::Syntax {
                        line: subckt.line,
                        message: format!("unknown model {:?} in .subckt", subckt.model),
                    })?;
            let child = &self.design.models[child_index];
            if child.blackbox {
                return Err(ParseBlifError::Syntax {
                    line: subckt.line,
                    message: format!(".subckt instantiates blackbox model {:?}", child.name),
                });
            }
            if self.on_stack[child_index] {
                return Err(ParseBlifError::Hierarchy {
                    line: subckt.line,
                    message: format!("recursive instantiation of model {:?}", child.name),
                });
            }
            if depth + 1 > MAX_DEPTH {
                return Err(ParseBlifError::Hierarchy {
                    line: subckt.line,
                    message: format!("hierarchy depth exceeds {MAX_DEPTH}"),
                });
            }
            self.instances += 1;
            if self.instances > MAX_INSTANCES {
                return Err(ParseBlifError::Hierarchy {
                    line: subckt.line,
                    message: format!("instantiation budget exceeded ({MAX_INSTANCES} instances)"),
                });
            }
            let ports: HashSet<&str> = child
                .inputs
                .iter()
                .chain(child.outputs.iter())
                .map(String::as_str)
                .collect();
            let mut bound: HashMap<String, String> = HashMap::new();
            for (formal, actual) in &subckt.conns {
                if !ports.contains(formal.as_str()) {
                    return Err(ParseBlifError::Syntax {
                        line: subckt.line,
                        message: format!("model {:?} has no port {formal:?}", child.name),
                    });
                }
                bound.insert(formal.clone(), resolve(rename, actual));
            }
            for input in &child.inputs {
                if !bound.contains_key(input) {
                    return Err(ParseBlifError::Syntax {
                        line: subckt.line,
                        message: format!("input {input:?} of model {:?} is unbound", child.name),
                    });
                }
            }
            // Unbound child outputs fall through to the prefix and become
            // dangling internal nets, matching common tool behaviour.
            self.counter += 1;
            let child_rename = Rename {
                bound,
                prefix: format!("{}${}$", child.name, self.counter),
            };
            self.on_stack[child_index] = true;
            self.emit(child_index, Some(&child_rename), depth + 1)?;
            self.on_stack[child_index] = false;
        }
        Ok(())
    }
}

/// Rejects a blackbox top model: it declares an interface but no logic.
pub(crate) fn check_top(root: &RawModel) -> Result<(), ParseBlifError> {
    if root.blackbox {
        return Err(ParseBlifError::Syntax {
            line: root.line,
            message: format!("top model {:?} is a blackbox", root.name),
        });
    }
    Ok(())
}

/// Flattens a raw multi-model design into one flat model rooted at the
/// file's first `.model`.
///
/// # Errors
///
/// Returns [`ParseBlifError::UnexpectedEof`] for an empty design,
/// [`ParseBlifError::Hierarchy`] on recursion or budget exhaustion, and
/// [`ParseBlifError::Syntax`] for unknown models and port-binding errors.
pub(crate) fn flatten(design: &RawDesign) -> Result<FlatModel, ParseBlifError> {
    let root: &RawModel = design.models.first().ok_or(ParseBlifError::UnexpectedEof)?;
    check_top(root)?;
    let mut flattener = Flattener {
        design,
        on_stack: vec![false; design.models.len()],
        instances: 0,
        counter: 0,
        flat: FlatModel {
            name: root.name.clone(),
            inputs: root.inputs.clone(),
            outputs: root.outputs.clone(),
            blocks: Vec::new(),
            latches: Vec::new(),
        },
    };
    flattener.on_stack[0] = true;
    flattener.emit(0, None, 0)?;
    Ok(flattener.flat)
}
