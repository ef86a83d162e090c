//! Typed errors of the wire format. Parsing never panics: every malformed,
//! truncated or wrong-version input maps to one of these variants.

use crate::Artifact;
use std::fmt;

/// Error reading a `dna-io` artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The first non-blank line is not a well-formed `dna-io v<N> <kind>`
    /// header.
    BadHeader(String),
    /// The header names a format version this library does not speak.
    UnsupportedVersion(u32),
    /// The header names a different artifact than the caller asked for.
    WrongArtifact {
        /// What the caller tried to parse.
        expected: Artifact,
        /// What the header declared.
        found: Artifact,
    },
    /// A body line failed to parse.
    Parse {
        /// 1-based line number in the input; 0 when the input had no
        /// lines (a command line's words).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The input ended before the closing `end` sentinel (or mid-section),
    /// i.e. the file was truncated.
    Truncated {
        /// What the parser was still waiting for.
        expected: String,
    },
    /// A structurally well-formed artifact carries a value that violates a
    /// documented cross-field invariant, or that cannot be represented on
    /// this host (counter overflow on a narrower target).
    Invalid {
        /// Which value, and what it violates.
        message: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::BadHeader(l) => write!(f, "bad header line: {l:?}"),
            IoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version v{v} (this library speaks v1)"
                )
            }
            IoError::WrongArtifact { expected, found } => {
                write!(f, "expected a {expected} artifact, found a {found}")
            }
            IoError::Parse { line: 0, message } => write!(f, "{message}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Truncated { expected } => {
                write!(f, "input truncated: expected {expected}")
            }
            IoError::Invalid { message } => write!(f, "invalid artifact value: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Shorthand for a [`IoError::Parse`] at a line.
pub(crate) fn perr(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}
