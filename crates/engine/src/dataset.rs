use crate::Executor;

/// A partitioned, immutable collection: the one dataset stage the
/// micro-batch fan-out runs.
///
/// [`PartitionedDataset::map_partitions`] consumes the dataset — its
/// partitions move into the stage's jobs, one owned partition each — and
/// returns a new one; `clone` first to keep the input.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedDataset<T> {
    partitions: Vec<Vec<T>>,
}

impl<T> PartitionedDataset<T> {
    /// Builds a dataset from pre-formed partitions (e.g. one per topic
    /// partition of a fetched micro-batch).
    ///
    /// Zero partitions is allowed: an empty micro-batch is a dataset with no
    /// partitions at all (and a stage on it is a no-op), not one empty
    /// partition.
    pub fn from_partitions(partitions: Vec<Vec<T>>) -> Self {
        PartitionedDataset { partitions }
    }
}

impl<T: Send + 'static> PartitionedDataset<T> {
    /// Runs `f` once per partition (the `mapPartitions` pattern — lets a job
    /// amortise per-batch state such as a loaded model).
    pub fn map_partitions<U, F>(self, exec: &Executor, f: F) -> PartitionedDataset<U>
    where
        U: Send + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        // Called by path: `run` is not a unique method name in the
        // workspace, and `cargo xtask analyze` would follow `exec.run(..)`
        // into every `run` there is.
        PartitionedDataset { partitions: Executor::run(exec, self.partitions, f) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_partitions_sees_whole_partitions() {
        let parts: Vec<Vec<i32>> = vec![(0..4).collect(), (4..8).collect(), (8..12).collect()];
        let ds = PartitionedDataset::from_partitions(parts);
        let sizes = ds.map_partitions(&Executor::new(4), |p| vec![p.len()]);
        assert_eq!(sizes, PartitionedDataset::from_partitions(vec![vec![4], vec![4], vec![4]]));
    }

    #[test]
    fn from_partitions_accepts_zero_partitions() {
        let ds = PartitionedDataset::<i32>::from_partitions(Vec::new());
        let out = ds.clone().map_partitions(&Executor::new(4), |p| p);
        assert_eq!(out, ds);
    }
}
