//! Hierarchy flattening for multi-model BLIF designs.
//!
//! The first `.model` in a file is the top; every `.subckt` is expanded
//! in place by renaming the child's nets: bound formals take the parent's
//! actual net, everything else gets a unique `model$N$` instance prefix.
//! Renaming maps symbol ids to symbol ids; each prefixed name is interned
//! into the reader's table once per instance, the first time it is used.
//! Expansion is cycle-safe (a model may not instantiate itself, directly
//! or transitively) and budgeted in both depth and total instance count so
//! a hostile file cannot blow the stack or memory.

use std::collections::{HashMap, HashSet};

use super::stream::{Blocks, RawLatch, RawModel, Sym, Symbols};
use crate::error::ParseBlifError;

/// Maximum `.subckt` nesting depth before flattening gives up.
pub(crate) const MAX_DEPTH: usize = 64;
/// Maximum total instantiations across the whole design.
pub(crate) const MAX_INSTANCES: usize = 4096;

/// A fully flattened model: plain nets, no remaining hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct FlatModel {
    pub name: String,
    pub inputs: Vec<Sym>,
    pub outputs: Vec<Sym>,
    pub logic: Blocks,
    pub latches: Vec<RawLatch>,
}

/// Per-instance net renaming: bound formals map to parent actuals, every
/// other net gets the instance prefix (interned on first use). The top
/// model has no prefix and keeps every net.
struct Rename {
    map: HashMap<Sym, Sym>,
    prefix: Option<String>,
}

impl Rename {
    fn resolve(&mut self, symbols: &mut Symbols, net: Sym) -> Sym {
        let Some(prefix) = &self.prefix else {
            return net;
        };
        *self.map.entry(net).or_insert_with(|| {
            let name = format!("{prefix}{}", symbols.name(net));
            symbols.intern(&name)
        })
    }
}

struct Flattener<'a> {
    models: &'a [RawModel],
    symbols: &'a mut Symbols,
    /// Models currently on the instantiation stack (cycle detection).
    on_stack: Vec<bool>,
    instances: usize,
    /// Monotone counter making every instance prefix unique.
    counter: usize,
    flat: FlatModel,
}

impl Flattener<'_> {
    /// Emits model `index` under `rename`. Recursion is one level per
    /// `.subckt` nesting level, bounded by [`MAX_DEPTH`].
    fn emit(
        &mut self,
        index: usize,
        rename: &mut Rename,
        depth: usize,
    ) -> Result<(), ParseBlifError> {
        let model = &self.models[index];
        let symbols = &mut *self.symbols;
        self.flat
            .logic
            .extend_renamed(&model.logic, |net| rename.resolve(symbols, net))?;
        for latch in &model.latches {
            self.flat.latches.push(RawLatch {
                line: latch.line,
                input: rename.resolve(symbols, latch.input),
                output: rename.resolve(symbols, latch.output),
                kind: latch.kind,
                control: latch.control.map(|c| rename.resolve(symbols, c)),
                init: latch.init,
            });
        }
        for subckt in &model.subckts {
            let child_index = self
                .models
                .iter()
                .position(|m| m.name == subckt.model)
                .ok_or_else(|| ParseBlifError::Syntax {
                    line: subckt.line,
                    message: format!("unknown model {:?} in .subckt", subckt.model),
                })?;
            let child = &self.models[child_index];
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
            let ports: HashSet<Sym> = child.inputs.iter().chain(&child.outputs).copied().collect();
            let mut bound: HashMap<Sym, Sym> = HashMap::new();
            for &(formal, actual) in &subckt.conns {
                if !ports.contains(&formal) {
                    return Err(ParseBlifError::Syntax {
                        line: subckt.line,
                        message: format!(
                            "model {:?} has no port {:?}",
                            child.name,
                            self.symbols.name(formal)
                        ),
                    });
                }
                let actual = rename.resolve(self.symbols, actual);
                bound.insert(formal, actual);
            }
            if let Some(&input) = child.inputs.iter().find(|i| !bound.contains_key(i)) {
                return Err(ParseBlifError::Syntax {
                    line: subckt.line,
                    message: format!(
                        "input {:?} of model {:?} is unbound",
                        self.symbols.name(input),
                        child.name
                    ),
                });
            }
            // Unbound child outputs fall through to the prefix and become
            // dangling internal nets, matching common tool behaviour.
            self.counter += 1;
            let mut child_rename = Rename {
                map: bound,
                prefix: Some(format!("{}${}$", child.name, self.counter)),
            };
            self.on_stack[child_index] = true;
            self.emit(child_index, &mut child_rename, depth + 1)?;
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
/// file's first `.model`, interning hierarchical net names into
/// `symbols`.
///
/// # Errors
///
/// Returns [`ParseBlifError::UnexpectedEof`] for an empty design,
/// [`ParseBlifError::Hierarchy`] on recursion or budget exhaustion, and
/// [`ParseBlifError::Syntax`] for unknown models and port-binding errors.
pub(crate) fn flatten(
    models: &[RawModel],
    symbols: &mut Symbols,
) -> Result<FlatModel, ParseBlifError> {
    let root: &RawModel = models.first().ok_or(ParseBlifError::UnexpectedEof)?;
    check_top(root)?;
    let mut flattener = Flattener {
        models,
        symbols,
        on_stack: vec![false; models.len()],
        instances: 0,
        counter: 0,
        flat: FlatModel {
            name: root.name.clone(),
            inputs: root.inputs.clone(),
            outputs: root.outputs.clone(),
            logic: Blocks::default(),
            latches: Vec::new(),
        },
    };
    flattener.on_stack[0] = true;
    let mut top = Rename {
        map: HashMap::new(),
        prefix: None,
    };
    flattener.emit(0, &mut top, 0)?;
    Ok(flattener.flat)
}
