//! Typed scenario errors.
//!
//! Every way a scenario can be rejected gets its own shape: syntax
//! errors carry the offending line, semantic errors say which section or
//! key is wrong, and a failed K-S oracle carries the full fit verdict —
//! mirroring the chaos invariant-oracle discipline of aborting loudly
//! with evidence instead of simulating garbage.

use std::fmt;
use toto_spec::toml::TomlError;

/// One failed K-S validation verdict: the synthesized stream family that
/// did not fit its trained hourly-normal model.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleFailure {
    /// Stream family, e.g. `"creates/gp"`.
    pub family: String,
    /// Cells tested (cells need enough observations to be testable).
    pub tested: u64,
    /// Cells whose normality hypothesis was not rejected.
    pub accepted: u64,
    /// Smallest p-value over tested cells.
    pub min_p: f64,
    /// Achieved acceptance rate (`accepted / tested`).
    pub acceptance: f64,
    /// The scenario's configured acceptance floor.
    pub min_acceptance: f64,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "K-S oracle rejected stream family {:?}: acceptance {:.3} < required {:.3} \
             ({}/{} cells accepted, min p = {:.4})",
            self.family,
            self.acceptance,
            self.min_acceptance,
            self.accepted,
            self.tested,
            self.min_p
        )
    }
}

/// Everything that can go wrong between a scenario file and a finished
/// run.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The file is not in the supported TOML subset.
    Parse(TomlError),
    /// The file parsed but describes an invalid scenario (unknown
    /// section/key, missing required table, bad value domain…).
    Invalid {
        /// Explanation, with a line number where one exists.
        message: String,
    },
    /// The mandatory in-run K-S validation oracle rejected a synthesized
    /// stream: the scenario's statistics do not fit the trained models,
    /// so the run is aborted before any simulation output is written.
    Oracle(OracleFailure),
    /// Filesystem trouble while loading a scenario or writing artifacts.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error rendered.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "scenario parse error, {e}"),
            ScenarioError::Invalid { message } => write!(f, "invalid scenario: {message}"),
            ScenarioError::Oracle(failure) => write!(f, "{failure}"),
            ScenarioError::Io { path, message } => write!(f, "io error on {path}: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<TomlError> for ScenarioError {
    fn from(e: TomlError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl ScenarioError {
    /// Shorthand for an [`ScenarioError::Invalid`] with a formatted
    /// message.
    pub fn invalid(message: impl Into<String>) -> Self {
        ScenarioError::Invalid {
            message: message.into(),
        }
    }
}
