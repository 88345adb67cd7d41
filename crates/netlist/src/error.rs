//! Error types for the netlist crate.

use std::error::Error;
use std::fmt;

/// Errors produced by network construction, validation and analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// A structural invariant of the network is violated.
    Structure(String),
    /// An operation required a complete truth table but the network has too
    /// many primary inputs.
    TooManyInputs {
        /// Number of primary inputs found.
        inputs: usize,
        /// Maximum supported for exhaustive analysis.
        limit: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Structure(msg) => write!(f, "invalid network structure: {msg}"),
            NetworkError::TooManyInputs { inputs, limit } => write!(
                f,
                "network has {inputs} primary inputs, exhaustive analysis supports at most {limit}"
            ),
        }
    }
}

impl Error for NetworkError {}

/// Errors produced while parsing BLIF text.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseBlifError {
    /// A line could not be interpreted.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A signal was referenced but never defined.
    UndefinedSignal(String),
    /// The file ended before a `.end` / complete model.
    UnexpectedEof,
    /// Reading from the underlying stream failed.
    Io(String),
    /// Hierarchy flattening hit a cycle or exceeded a budget.
    Hierarchy {
        /// 1-based line number of the offending `.subckt`.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The input outgrew the reader's 32-bit block bookkeeping: a line
    /// number, a `.names` row count, or the total of fanin references or
    /// cube bytes passed 2^32 - 1.
    TooLarge {
        /// 1-based line number where the limit was passed.
        line: usize,
        /// What passed it.
        what: &'static str,
    },
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::Syntax { line, message } => {
                write!(f, "BLIF syntax error at line {line}: {message}")
            }
            ParseBlifError::UndefinedSignal(name) => {
                write!(f, "signal {name:?} referenced but never defined")
            }
            ParseBlifError::UnexpectedEof => write!(f, "unexpected end of BLIF input"),
            ParseBlifError::Io(message) => write!(f, "cannot read BLIF input: {message}"),
            ParseBlifError::Hierarchy { line, message } => {
                write!(f, "BLIF hierarchy error at line {line}: {message}")
            }
            ParseBlifError::TooLarge { line, what } => write!(
                f,
                "BLIF input too large at line {line}: {what} exceeds 2^32 - 1"
            ),
        }
    }
}

impl Error for ParseBlifError {}

/// Errors produced by lookup-table circuit construction.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LutError {
    /// A LUT was declared with more inputs than the circuit's `K`.
    TooManyInputs {
        /// Inputs requested.
        inputs: usize,
        /// The circuit's LUT input limit.
        k: usize,
    },
    /// A LUT's truth table arity does not match its input count.
    ArityMismatch {
        /// Declared inputs.
        inputs: usize,
        /// Truth table variables.
        table_vars: usize,
    },
    /// A source referenced a LUT that does not exist (yet).
    UnknownSource(String),
}

impl fmt::Display for LutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LutError::TooManyInputs { inputs, k } => {
                write!(f, "lookup table has {inputs} inputs but K = {k}")
            }
            LutError::ArityMismatch { inputs, table_vars } => write!(
                f,
                "lookup table has {inputs} inputs but its truth table has {table_vars} variables"
            ),
            LutError::UnknownSource(s) => write!(f, "unknown lookup-table source {s}"),
        }
    }
}

impl Error for LutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_error_messages() {
        let e = NetworkError::Structure("gate n3 has no fanins".into());
        assert!(e.to_string().contains("invalid network structure"));
        let e = NetworkError::TooManyInputs {
            inputs: 40,
            limit: 16,
        };
        let msg = e.to_string();
        assert!(msg.contains("40") && msg.contains("16"));
    }

    #[test]
    fn blif_error_messages() {
        let e = ParseBlifError::Syntax {
            line: 7,
            message: "bad cube".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = ParseBlifError::UndefinedSignal("ghost".into());
        assert!(e.to_string().contains("ghost"));
        assert!(ParseBlifError::UnexpectedEof
            .to_string()
            .contains("end of BLIF"));
        let e = ParseBlifError::Io("pipe closed".into());
        assert!(e.to_string().contains("pipe closed"));
        let e = ParseBlifError::Hierarchy {
            line: 3,
            message: "recursive instantiation".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("line 3") && msg.contains("recursive"));
    }

    #[test]
    fn lut_error_messages() {
        let e = LutError::TooManyInputs { inputs: 6, k: 4 };
        assert!(e.to_string().contains("K = 4"));
        let e = LutError::ArityMismatch {
            inputs: 3,
            table_vars: 2,
        };
        assert!(e.to_string().contains("3") && e.to_string().contains("2"));
        let e = LutError::UnknownSource("L9".into());
        assert!(e.to_string().contains("L9"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn is_error<E: std::error::Error>(_: &E) {}
        is_error(&NetworkError::Structure(String::new()));
        is_error(&ParseBlifError::UnexpectedEof);
        is_error(&LutError::UnknownSource(String::new()));
    }
}
