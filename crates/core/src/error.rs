use std::fmt;

use iupdater_linalg::LinalgError;

/// Error type for the iUpdater core algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A matrix or vector argument had an unexpected shape.
    DimensionMismatch {
        /// What was being attempted.
        context: &'static str,
        /// Expected dimension(s), described.
        expected: String,
        /// What was received.
        got: String,
    },
    /// An argument was invalid.
    InvalidArgument(&'static str),
    /// An underlying I/O operation failed. `std::io::Error` is neither
    /// `Clone` nor `PartialEq`, so the kind and rendered message are
    /// preserved instead of the error value itself.
    Io {
        /// The failed operation ("read" / "write").
        op: &'static str,
        /// The original [`std::io::ErrorKind`].
        kind: std::io::ErrorKind,
        /// The original error's rendered message.
        message: String,
    },
    /// The underlying linear algebra failed.
    Linalg(LinalgError),
    /// A fleet operation failed for one specific deployment; wraps the
    /// underlying error with the deployment's identity.
    Deployment {
        /// The deployment's registered name.
        name: String,
        /// The deployment's index within the service.
        id: usize,
        /// What went wrong.
        source: Box<CoreError>,
    },
}

impl CoreError {
    /// Wraps an [`std::io::Error`], preserving its kind and message.
    pub fn from_io(op: &'static str, e: &std::io::Error) -> Self {
        CoreError::Io {
            op,
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {got}"
            ),
            CoreError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            CoreError::Io { op, kind, message } => {
                write!(f, "{op} failed ({kind:?}): {message}")
            }
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CoreError::Deployment { name, id, source } => {
                write!(f, "deployment '{name}' (id {id}): {source}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::Deployment { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = CoreError::DimensionMismatch {
            context: "update",
            expected: "8 rows".into(),
            got: "6 rows".into(),
        };
        assert!(e.to_string().contains("dimension mismatch in update"));
        assert!(CoreError::InvalidArgument("x")
            .to_string()
            .contains("invalid"));
    }

    #[test]
    fn linalg_error_wraps_with_source() {
        use std::error::Error;
        let e = CoreError::from(LinalgError::Singular);
        assert!(e.to_string().contains("singular"));
        assert!(e.source().is_some());
    }

    #[test]
    fn io_preserves_kind_and_message() {
        let io = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "disk says no");
        let e = CoreError::from_io("write", &io);
        assert_eq!(
            e,
            CoreError::Io {
                op: "write",
                kind: std::io::ErrorKind::PermissionDenied,
                message: "disk says no".into(),
            }
        );
        assert!(e.to_string().contains("PermissionDenied"));
        assert!(e.to_string().contains("disk says no"));
    }

    #[test]
    fn deployment_wraps_with_identity_and_source() {
        use std::error::Error;
        let e = CoreError::Deployment {
            name: "office-3".into(),
            id: 3,
            source: Box::new(CoreError::InvalidArgument("bad day")),
        };
        let msg = e.to_string();
        assert!(msg.contains("office-3") && msg.contains("id 3") && msg.contains("bad day"));
        assert!(e.source().is_some());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
