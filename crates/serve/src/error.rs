//! Typed errors for the serving layer, and their mapping onto wire
//! [`ErrorCode`]s. Every failure a connection can provoke — malformed
//! frames, corrupt payloads, missing models — surfaces as one of these
//! variants, never as a panic.

use crate::protocol::{ErrorCode, FrameError};
use qn_codec::CodecError;
use std::fmt;

/// Everything that can go wrong serving or speaking to a server.
#[derive(Debug)]
pub enum ServeError {
    /// Underlying socket/file failure.
    Io(std::io::Error),
    /// Stream-level framing violation.
    Frame(FrameError),
    /// Codec-level failure (corrupt container/model, geometry).
    Codec(CodecError),
    /// The zoo holds no model with this id.
    UnknownModel(u64),
    /// A request payload was structurally malformed.
    BadRequest(String),
    /// The server is at an admission limit and shed the request
    /// (typed `BUSY` reply; the connection stays usable and the
    /// client may retry).
    Busy(String),
    /// The peer answered with a typed error reply.
    Remote {
        /// Wire error code (0 if the peer sent an unknown code).
        code: u16,
        /// Human-readable message from the peer.
        message: String,
    },
    /// A server-side invariant failed (e.g. a request handler
    /// panicked).
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Frame(e) => write!(f, "frame error: {e}"),
            ServeError::Codec(e) => write!(f, "codec error: {e}"),
            ServeError::UnknownModel(id) => {
                write!(f, "no model {id:#018x} in the zoo (LOAD_MODEL it first)")
            }
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Busy(msg) => write!(f, "server busy: {msg}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Codec(e)
    }
}

impl ServeError {
    /// The wire error code a server reply carries for this failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServeError::Io(_) | ServeError::Internal(_) => ErrorCode::Internal,
            ServeError::Frame(e) => e.code(),
            ServeError::Codec(CodecError::ModelMismatch { .. }) => ErrorCode::ModelMismatch,
            ServeError::Codec(_) => ErrorCode::Codec,
            ServeError::UnknownModel(_) => ErrorCode::UnknownModel,
            ServeError::BadRequest(_) => ErrorCode::BadRequest,
            ServeError::Busy(_) => ErrorCode::Busy,
            ServeError::Remote { .. } => ErrorCode::Internal, // client-side only
        }
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_is_recognised_on_both_sides_of_the_wire() {
        let shed = ServeError::Busy("admission limit".into());
        assert_eq!(shed.code(), ErrorCode::Busy);
        assert!(shed.to_string().contains("busy"));
        // The client decodes the wire status back to the same code.
        assert_eq!(
            ErrorCode::from_u16(shed.code() as u16),
            Some(ErrorCode::Busy)
        );
        assert_ne!(ServeError::BadRequest("x".into()).code(), ErrorCode::Busy);
    }

    #[test]
    fn codes_map_by_failure_class() {
        assert_eq!(ServeError::UnknownModel(7).code(), ErrorCode::UnknownModel);
        assert_eq!(
            ServeError::BadRequest("x".into()).code(),
            ErrorCode::BadRequest
        );
        assert_eq!(
            ServeError::Codec(CodecError::ModelMismatch {
                container: 1,
                supplied: 2
            })
            .code(),
            ErrorCode::ModelMismatch
        );
        assert_eq!(
            ServeError::Codec(CodecError::Invalid("x".into())).code(),
            ErrorCode::Codec
        );
        assert_eq!(
            ServeError::Frame(FrameError::TooLarge(u32::MAX)).code(),
            ErrorCode::FrameTooLarge
        );
    }

    #[test]
    fn display_names_every_variant() {
        for (err, needle) in [
            (ServeError::UnknownModel(0xABC), "no model"),
            (ServeError::BadRequest("short".into()), "bad request"),
            (
                ServeError::Remote {
                    code: 17,
                    message: "gone".into(),
                },
                "server error 17",
            ),
            (ServeError::Internal("oops".into()), "internal"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
