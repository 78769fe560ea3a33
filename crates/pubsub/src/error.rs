//! Error types for the publish-subscribe substrate.

use crate::value::{Value, ValueType};
use std::error::Error;
use std::fmt;

/// Errors produced when validating events or filters against a
/// [`crate::Schema`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The attribute is not declared and the schema is closed.
    UnknownAttr {
        /// Schema name.
        schema: String,
        /// Offending attribute.
        attr: String,
    },
    /// The value's type does not fit the declared attribute type.
    TypeMismatch {
        /// Offending attribute.
        attr: String,
        /// Declared/expected type.
        expected: ValueType,
        /// Actual type supplied.
        got: ValueType,
    },
    /// The value is outside the attribute's enumerated domain.
    OutOfDomain {
        /// Offending attribute.
        attr: String,
        /// The rejected value.
        value: Value,
    },
    /// A required attribute is missing from the event.
    MissingRequired {
        /// Schema name.
        schema: String,
        /// Missing attribute.
        attr: String,
    },
    /// The value itself is malformed (e.g. NaN).
    InvalidValue {
        /// Offending attribute.
        attr: String,
        /// Why the value was rejected.
        reason: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownAttr { schema, attr } => {
                write!(f, "attribute `{attr}` is not declared in schema `{schema}`")
            }
            SchemaError::TypeMismatch {
                attr,
                expected,
                got,
            } => {
                write!(f, "attribute `{attr}` expects {expected}, got {got}")
            }
            SchemaError::OutOfDomain { attr, value } => {
                write!(
                    f,
                    "value `{value}` is outside the domain of attribute `{attr}`"
                )
            }
            SchemaError::MissingRequired { schema, attr } => {
                write!(
                    f,
                    "required attribute `{attr}` of schema `{schema}` is missing"
                )
            }
            SchemaError::InvalidValue { attr, reason } => {
                write!(f, "invalid value for attribute `{attr}`: {reason}")
            }
        }
    }
}

impl Error for SchemaError {}

/// Errors produced by broker operations.
#[derive(Debug, Clone, PartialEq)]
pub enum BrokerError {
    /// The referenced subscriber is not registered with the broker.
    UnknownSubscriber(crate::broker::SubscriberId),
    /// The referenced subscription does not exist.
    UnknownSubscription(crate::matcher::SubscriptionId),
    /// The event or filter failed schema validation.
    Schema(SchemaError),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::UnknownSubscriber(id) => write!(f, "unknown subscriber {id}"),
            BrokerError::UnknownSubscription(id) => write!(f, "unknown subscription {id}"),
            BrokerError::Schema(e) => write!(f, "schema validation failed: {e}"),
        }
    }
}

impl Error for BrokerError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BrokerError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchemaError> for BrokerError {
    fn from(e: SchemaError) -> Self {
        BrokerError::Schema(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SchemaError::UnknownAttr {
            schema: "s".into(),
            attr: "a".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("`a`"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn broker_error_wraps_schema_error_as_source() {
        let e = BrokerError::from(SchemaError::InvalidValue {
            attr: "x".into(),
            reason: "NaN".into(),
        });
        assert!(e.source().is_some());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SchemaError>();
        assert_send_sync::<BrokerError>();
    }
}
