use crate::Executor;
use cad3_types::{index_usize, len_u64};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// An RDD-like partitioned, immutable collection.
///
/// Operators are eager (each call runs a parallel stage on the given
/// [`Executor`]), consume the dataset — its partitions move into the stage's
/// jobs, one owned partition each — and return a new one; `clone` first to
/// keep the input. Partitioning is preserved by
/// narrow operators (`map`, `filter`, `flat_map`) and rebuilt by wide ones
/// (`group_by_key`).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedDataset<T> {
    partitions: Vec<Vec<T>>,
}

impl<T> PartitionedDataset<T> {
    /// Splits `data` into `partitions` contiguous chunks.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`.
    pub fn from_vec(data: Vec<T>, partitions: usize) -> Self {
        assert!(partitions > 0, "dataset needs at least one partition");
        let per = data.len().div_ceil(partitions).max(1);
        let mut parts: Vec<Vec<T>> = Vec::with_capacity(partitions);
        let mut it = data.into_iter();
        for _ in 0..partitions {
            let chunk: Vec<T> = it.by_ref().take(per).collect();
            parts.push(chunk);
        }
        PartitionedDataset { partitions: parts }
    }

    /// Builds a dataset from pre-formed partitions (e.g. one per topic
    /// partition of a fetched micro-batch).
    ///
    /// Unlike [`PartitionedDataset::from_vec`], zero partitions is allowed:
    /// an empty micro-batch is a dataset with no partitions at all (and all
    /// operators on it are no-ops), not one empty partition.
    pub fn from_partitions(partitions: Vec<Vec<T>>) -> Self {
        PartitionedDataset { partitions }
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of elements.
    pub fn count(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// Whether the dataset holds no elements.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Flattens the dataset into a single vector, partition order first.
    pub fn collect(self) -> Vec<T> {
        self.partitions.into_iter().flatten().collect()
    }

    /// Borrowing iterator over all elements.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.partitions.iter().flatten()
    }
}

impl<T: Send + 'static> PartitionedDataset<T> {
    /// Applies `f` to every element (narrow, parallel per partition).
    pub fn map<U, F>(self, exec: &Executor, f: F) -> PartitionedDataset<U>
    where
        U: Send + 'static,
        F: Fn(T) -> U + Send + Sync + 'static,
    {
        self.map_partitions(exec, move |p| p.into_iter().map(&f).collect())
    }

    /// Keeps elements satisfying `pred` (narrow, parallel per partition).
    pub fn filter<F>(self, exec: &Executor, pred: F) -> PartitionedDataset<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.map_partitions(exec, move |p| p.into_iter().filter(&pred).collect())
    }

    /// Maps each element to zero or more outputs (narrow).
    pub fn flat_map<U, I, F>(self, exec: &Executor, f: F) -> PartitionedDataset<U>
    where
        U: Send + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(T) -> I + Send + Sync + 'static,
    {
        self.map_partitions(exec, move |p| p.into_iter().flat_map(&f).collect())
    }

    /// Runs `f` once per partition (the `mapPartitions` pattern — lets a job
    /// amortise per-batch state such as a loaded model).
    pub fn map_partitions<U, F>(self, exec: &Executor, f: F) -> PartitionedDataset<U>
    where
        U: Send + 'static,
        F: Fn(Vec<T>) -> Vec<U> + Send + Sync + 'static,
    {
        // Called by path, here and in `reduce`: `run` is not a unique method
        // name in the workspace, and `cargo xtask analyze` would follow
        // `exec.run(..)` into every `run` there is.
        PartitionedDataset { partitions: Executor::run(exec, self.partitions, f) }
    }

    /// Concatenates two datasets (Spark's `union`): partitions of `other`
    /// are appended after `self`'s, preserving both partitionings.
    pub fn union(mut self, other: PartitionedDataset<T>) -> PartitionedDataset<T> {
        self.partitions.extend(other.partitions);
        self
    }

    /// Reduces all elements with `op`, starting from `identity` in each
    /// partition and combining partials (requires `op` associative and
    /// `identity` neutral, like Spark's `fold`).
    pub fn reduce<F>(self, exec: &Executor, identity: T, op: F) -> T
    where
        T: Clone,
        F: Fn(T, T) -> T + Send + Sync + 'static,
    {
        let op = Arc::new(op);
        let seeded = self.partitions.into_iter().map(|p| (identity.clone(), p)).collect();
        let fold = Arc::clone(&op);
        let partials = Executor::run(exec, seeded, move |(identity, p): (T, Vec<T>)| {
            p.into_iter().fold(identity, &*fold)
        });
        partials.into_iter().fold(identity, &*op)
    }
}

impl<K, V> PartitionedDataset<(K, V)>
where
    K: Send + Eq + Hash + 'static,
    V: Send + 'static,
{
    /// Combines values per key with an associative `op` (wide). Equivalent
    /// to `group_by_key` followed by a fold, but combines within input
    /// partitions first — Spark's `reduceByKey` shuffle optimisation.
    pub fn reduce_by_key<F>(self, exec: &Executor, op: F) -> PartitionedDataset<(K, V)>
    where
        F: Fn(V, V) -> V + Send + Sync + 'static,
    {
        let op = Arc::new(op);
        // Map-side combine.
        let combine = Arc::clone(&op);
        let combined = self.map_partitions(exec, move |p| {
            let mut acc: HashMap<K, V> = HashMap::new();
            for (k, v) in p {
                let merged = match acc.remove(&k) {
                    Some(prev) => combine(prev, v),
                    None => v,
                };
                acc.insert(k, merged);
            }
            acc.into_iter().collect::<Vec<(K, V)>>()
        });
        // Reduce-side combine via the grouped shuffle.
        combined.group_by_key(exec).map(exec, move |(k, vs)| {
            let mut it = vs.into_iter();
            let first = it.next().expect("groups are non-empty");
            (k, it.fold(first, &*op))
        })
    }

    /// Counts occurrences per key (Spark's `countByKey` as a dataset).
    pub fn count_by_key(self, exec: &Executor) -> PartitionedDataset<(K, u64)> {
        self.map(exec, |(k, _)| (k, 1u64)).reduce_by_key(exec, |a, b| a + b)
    }

    /// Groups values by key (wide: repartitions by key hash).
    ///
    /// The output has the same partition count; all pairs for one key land
    /// in one partition.
    pub fn group_by_key(self, exec: &Executor) -> PartitionedDataset<(K, Vec<V>)> {
        let n = self.partitions.len();
        // Shuffle-write: each input partition buckets its pairs.
        let bucketed = self.map_partitions(exec, move |p| {
            let mut buckets: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
            for (k, v) in p {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                use std::hash::Hasher;
                k.hash(&mut h);
                let b = index_usize(h.finish() % len_u64(n));
                buckets[b].push((k, v));
            }
            buckets
        });
        // The shuffle itself: output partition b owns bucket b of every
        // input partition, in input-partition order.
        let mut shuffled: Vec<Vec<Vec<(K, V)>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for buckets in bucketed.partitions {
            for (inbox, bucket) in shuffled.iter_mut().zip(buckets) {
                inbox.push(bucket);
            }
        }
        // Shuffle-read + combine per output partition.
        PartitionedDataset { partitions: shuffled }.map_partitions(exec, |inbox| {
            let mut groups: HashMap<K, Vec<V>> = HashMap::new();
            for (k, v) in inbox.into_iter().flatten() {
                groups.entry(k).or_default().push(v);
            }
            groups.into_iter().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec() -> Executor {
        Executor::new(4)
    }

    #[test]
    fn from_vec_partitions_evenly() {
        let ds = PartitionedDataset::from_vec((0..10).collect::<Vec<i32>>(), 3);
        assert_eq!(ds.partition_count(), 3);
        assert_eq!(ds.count(), 10);
        assert_eq!(ds.clone().collect(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn from_vec_more_partitions_than_elements() {
        let ds = PartitionedDataset::from_vec(vec![1, 2], 5);
        assert_eq!(ds.partition_count(), 5);
        assert_eq!(ds.count(), 2);
    }

    #[test]
    fn map_matches_sequential() {
        let ds = PartitionedDataset::from_vec((0..1000).collect::<Vec<i64>>(), 7);
        let out = ds.map(&exec(), |x| x * 3).collect();
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn filter_matches_sequential() {
        let ds = PartitionedDataset::from_vec((0..100).collect::<Vec<i64>>(), 4);
        let out = ds.filter(&exec(), |x| x % 2 == 0).collect();
        assert_eq!(out, (0..100).filter(|x| x % 2 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_expands() {
        let ds = PartitionedDataset::from_vec(vec![1, 2, 3], 2);
        let out = ds.flat_map(&exec(), |x| vec![x; x as usize]).collect();
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn reduce_sums() {
        let ds = PartitionedDataset::from_vec((1..=100).collect::<Vec<i64>>(), 6);
        assert_eq!(ds.reduce(&exec(), 0, |a, b| a + b), 5050);
    }

    #[test]
    fn map_partitions_sees_whole_partitions() {
        let ds = PartitionedDataset::from_vec((0..12).collect::<Vec<i32>>(), 3);
        let sizes = ds.map_partitions(&exec(), |p| vec![p.len()]).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 12);
        assert_eq!(sizes.len(), 3);
    }

    #[test]
    fn group_by_key_collects_all_values_per_key() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 5, i)).collect();
        let ds = PartitionedDataset::from_vec(pairs, 4);
        let grouped = ds.group_by_key(&exec()).collect();
        assert_eq!(grouped.len(), 5);
        for (k, vs) in &grouped {
            assert_eq!(vs.len(), 20, "key {k}");
            for v in vs {
                assert_eq!(v % 5, *k);
            }
        }
    }

    #[test]
    fn group_by_key_puts_key_in_single_partition() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i % 7, i)).collect();
        let ds = PartitionedDataset::from_vec(pairs, 4);
        let grouped = ds.group_by_key(&exec());
        let mut seen = std::collections::HashMap::new();
        for (pi, part) in grouped.partitions.iter().enumerate() {
            for (k, _) in part {
                if let Some(prev) = seen.insert(*k, pi) {
                    assert_eq!(prev, pi, "key {k} appears in two partitions");
                }
            }
        }
    }

    #[test]
    fn union_concatenates_preserving_partitions() {
        let a = PartitionedDataset::from_vec(vec![1, 2, 3], 2);
        let b = PartitionedDataset::from_vec(vec![4, 5], 1);
        let u = a.union(b);
        assert_eq!(u.partition_count(), 3);
        assert_eq!(u.collect(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn count_by_key_counts() {
        let pairs: Vec<(u32, &str)> = vec![(1, "a"), (2, "b"), (1, "c"), (1, "d"), (3, "e")];
        let ds = PartitionedDataset::from_vec(pairs, 2);
        let mut counts = ds.count_by_key(&exec()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![(1, 3), (2, 1), (3, 1)]);
    }

    #[test]
    fn reduce_by_key_matches_group_then_fold() {
        let pairs: Vec<(u32, u64)> = (0..200).map(|i| (i % 7, i as u64)).collect();
        let ds = PartitionedDataset::from_vec(pairs.clone(), 5);
        let mut reduced = ds.reduce_by_key(&exec(), |a, b| a + b).collect();
        reduced.sort_unstable();
        let mut expected: std::collections::HashMap<u32, u64> = Default::default();
        for (k, v) in pairs {
            *expected.entry(k).or_default() += v;
        }
        let mut expected: Vec<(u32, u64)> = expected.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(reduced, expected);
    }

    #[test]
    fn reduce_by_key_single_occurrence_keys_pass_through() {
        let pairs: Vec<(u32, u32)> = (0..20).map(|i| (i, i * 10)).collect();
        let ds = PartitionedDataset::from_vec(pairs.clone(), 3);
        let mut out = ds.reduce_by_key(&exec(), |a, b| a.max(b)).collect();
        out.sort_unstable();
        assert_eq!(out, pairs);
    }

    #[test]
    fn empty_dataset_ops() {
        let ds = PartitionedDataset::from_vec(Vec::<i32>::new(), 3);
        assert!(ds.is_empty());
        assert!(ds.clone().map(&exec(), |x| x).collect().is_empty());
        assert_eq!(ds.reduce(&exec(), 0, |a, b| a + b), 0);
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        PartitionedDataset::from_vec(vec![1], 0);
    }

    #[test]
    fn from_partitions_accepts_zero_partitions() {
        let ds = PartitionedDataset::<i32>::from_partitions(Vec::new());
        assert_eq!(ds.partition_count(), 0);
        assert!(ds.is_empty());
        assert!(ds.clone().map(&exec(), |x| x).collect().is_empty());
        assert_eq!(ds.reduce(&exec(), 0, |a, b| a + b), 0);
    }
}
