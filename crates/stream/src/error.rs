use std::error::Error;
use std::fmt;

/// Errors returned by the streaming substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The referenced topic does not exist on this broker.
    UnknownTopic(String),
    /// The topic exists but the partition index is out of range.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// Requested partition index.
        partition: u32,
    },
    /// A topic with this name already exists.
    TopicExists(String),
    /// The requested offset is below the earliest one the log retains: a
    /// commit or the time horizon has trimmed it.
    OffsetOutOfRange {
        /// Requested offset.
        requested: u64,
        /// Earliest retained offset.
        earliest: u64,
    },
    /// The consumer has not subscribed to any topic yet.
    NotSubscribed,
    /// A topic was created with zero partitions.
    InvalidPartitionCount,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownTopic(t) => write!(f, "unknown topic `{t}`"),
            StreamError::UnknownPartition { topic, partition } => {
                write!(f, "unknown partition {partition} of topic `{topic}`")
            }
            StreamError::TopicExists(t) => write!(f, "topic `{t}` already exists"),
            StreamError::OffsetOutOfRange { requested, earliest } => {
                write!(f, "offset {requested} below retention horizon {earliest}")
            }
            StreamError::NotSubscribed => f.write_str("consumer is not subscribed to any topic"),
            StreamError::InvalidPartitionCount => {
                f.write_str("topics require at least one partition")
            }
        }
    }
}

impl Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(StreamError::UnknownTopic("X".into()).to_string(), "unknown topic `X`");
        assert!(StreamError::OffsetOutOfRange { requested: 1, earliest: 5 }
            .to_string()
            .contains("retention"));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<StreamError>();
    }
}
