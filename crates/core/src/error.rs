//! Error types for the core analysis crate.

use std::fmt;

/// Errors raised by the core analysis APIs.
#[derive(Clone, Debug, PartialEq)]
pub enum Error {
    /// Two structures that must cover the same domain disagree in
    /// size.
    DomainMismatch { expected: usize, got: usize },
    /// A frequency or interval endpoint fell outside `[0, 1]` or the
    /// interval was inverted.
    InvalidInterval { item: usize, low: f64, high: f64 },
    /// A parameter outside its documented range.
    InvalidParameter(String),
    /// The mapping space admits no consistent matching to analyze.
    EmptyMappingSpace,
    /// The exact rung's component walks would take more than `cap`
    /// subset steps, so it declined before any walk.
    TooCostly { price: u64, cap: u64 },
    /// The underlying matching sampler failed.
    Sampler(String),
    /// A database-layer failure (construction, relabeling).
    Data(String),
    /// A worker task panicked; the pool was drained cleanly and the
    /// payload captured instead of aborting the process.
    WorkerPanic { task: usize, payload: String },
    /// The wall-clock budget of a budgeted run was exceeded.
    BudgetExceeded { budget_ms: u64 },
    /// A [`andi_graph::par::CancelToken`] fired mid-run.
    Cancelled,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DomainMismatch { expected, got } => {
                write!(f, "domain size mismatch: expected {expected}, got {got}")
            }
            Error::InvalidInterval { item, low, high } => {
                // The endpoints are belief masses derived from the
                // owner's data; rendering them would leak through
                // error channels. Name the failure shape, not the
                // values (the oracle's structured JSON path carries
                // them where a machine consumer is sanctioned).
                let shape = if low > high {
                    "inverted"
                } else {
                    "endpoint outside [0, 1]"
                };
                write!(f, "item {item}: invalid belief interval ({shape})")
            }
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::EmptyMappingSpace => {
                write!(f, "the space of consistent crack mappings is empty")
            }
            Error::TooCostly { price, cap } => write!(
                f,
                "the component walks price at {price} subset steps, above the exact cap {cap}"
            ),
            Error::Sampler(msg) => write!(f, "sampler failure: {msg}"),
            Error::Data(msg) => write!(f, "data error: {msg}"),
            Error::WorkerPanic { task, payload } => {
                write!(f, "worker task {task} panicked: {payload}")
            }
            Error::BudgetExceeded { budget_ms } => {
                write!(f, "wall-clock budget of {budget_ms} ms exceeded")
            }
            Error::Cancelled => write!(f, "computation cancelled"),
        }
    }
}

impl std::error::Error for Error {}

impl From<andi_graph::par::ExecError> for Error {
    fn from(e: andi_graph::par::ExecError) -> Self {
        match e {
            andi_graph::par::ExecError::Cancelled => Error::Cancelled,
            andi_graph::par::ExecError::BudgetExceeded { budget_ms } => {
                Error::BudgetExceeded { budget_ms }
            }
            andi_graph::par::ExecError::WorkerPanic { task, payload } => {
                Error::WorkerPanic { task, payload }
            }
        }
    }
}

/// Convenient result alias for the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::DomainMismatch {
            expected: 5,
            got: 3,
        };
        assert!(e.to_string().contains("expected 5"));
        let e = Error::InvalidInterval {
            item: 2,
            low: 0.7,
            high: 0.3,
        };
        assert!(e.to_string().contains("item 2"));
        assert!(e.to_string().contains("inverted"));
        assert!(Error::EmptyMappingSpace.to_string().contains("empty"));
        assert!(Error::InvalidParameter("tau".into())
            .to_string()
            .contains("tau"));
        assert_eq!(
            Error::TooCostly { price: 9, cap: 4 }.to_string(),
            "the component walks price at 9 subset steps, above the exact cap 4"
        );
        assert!(Error::Sampler("x".into()).to_string().contains("x"));
        assert!(Error::Data("y".into()).to_string().contains("y"));
        let e = Error::WorkerPanic {
            task: 7,
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("task 7") && e.to_string().contains("boom"));
        assert!(Error::BudgetExceeded { budget_ms: 250 }
            .to_string()
            .contains("250 ms"));
        assert!(Error::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn invalid_interval_display_never_echoes_endpoints() {
        // Regression pin for the leak-in-error fix: belief-interval
        // endpoints are derived from the owner's data and must not
        // surface in the human-readable error channel.
        let e = Error::InvalidInterval {
            item: 4,
            low: 0.7,
            high: 0.3,
        };
        assert_eq!(e.to_string(), "item 4: invalid belief interval (inverted)");
        let e = Error::InvalidInterval {
            item: 1,
            low: -0.25,
            high: 1.5,
        };
        assert_eq!(
            e.to_string(),
            "item 1: invalid belief interval (endpoint outside [0, 1])"
        );
        assert!(!e.to_string().contains("0.25") && !e.to_string().contains("1.5"));
    }

    #[test]
    fn exec_errors_convert_structurally() {
        use andi_graph::par::ExecError;
        assert_eq!(Error::from(ExecError::Cancelled), Error::Cancelled);
        assert_eq!(
            Error::from(ExecError::BudgetExceeded { budget_ms: 9 }),
            Error::BudgetExceeded { budget_ms: 9 }
        );
        assert_eq!(
            Error::from(ExecError::WorkerPanic {
                task: 3,
                payload: "p".into()
            }),
            Error::WorkerPanic {
                task: 3,
                payload: "p".into()
            }
        );
    }
}
