//! Runtime lock-rank witness for the CAD3 workspace.
//!
//! Every named lock site in the workspace has a rank in the checked-in
//! `lockranks.toml` (repo root), bootstrapped by `cargo xtask analyze
//! --emit-lockranks` and verified statically by `cargo xtask analyze`. This
//! crate is the *dynamic* half of that contract: a call site wraps each
//! acquisition in [`rank_scope!`], which pushes the site's rank onto a
//! thread-local held-locks stack and asserts that ranks are strictly
//! increasing — so any lock-order inversion a test actually executes panics
//! on the spot, and every existing test doubles as a deadlock regression
//! test.
//!
//! The witness exists only when `debug_assertions` are on or the build sets
//! `--cfg cad3_lockrank` (CI runs the suite once in release with the cfg
//! forced); in ordinary release builds and under `--cfg loom` the macro
//! expands to a unit value and this crate contributes no code at all.
//!
//! ```text
//! let _held = cad3_lockrank::rank_scope!("cad3_stream::Broker::topics");
//! // ... acquire the `topics` lock while `_held` is live ...
//! ```
//!
//! (Shown as text, not a doctest: the macro body is selected by the *calling*
//! crate's `debug_assertions`, and doctests can build with a different
//! profile than the library they link against.)

/// Marks the start of a lock-guard scope for the named site.
///
/// Expands to a value that must be bound to a named local (`let _held = ...`)
/// spanning the same lexical scope as the lock guard itself. In witness
/// builds it panics if `site` is unknown to `lockranks.toml` or if its rank
/// is not strictly above every rank already held by this thread; elsewhere it
/// expands to `()`.
#[macro_export]
macro_rules! rank_scope {
    ($site:literal) => {{
        #[cfg(all(not(loom), any(debug_assertions, cad3_lockrank)))]
        let held = $crate::acquire($site);
        #[cfg(not(all(not(loom), any(debug_assertions, cad3_lockrank))))]
        let held = ();
        held
    }};
}

#[cfg(all(not(loom), any(debug_assertions, cad3_lockrank)))]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::OnceLock;

    /// The checked-in rank declarations, compiled into the witness so the
    /// runtime check can never drift from the file the analyzer verifies.
    const RANKS_TOML: &str = include_str!("../../../lockranks.toml");

    fn ranks() -> &'static HashMap<&'static str, u32> {
        static TABLE: OnceLock<HashMap<&'static str, u32>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut map = HashMap::new();
            for raw in RANKS_TOML.lines() {
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
                    continue;
                }
                let Some((key, value)) = line.split_once('=') else {
                    panic!("lockranks.toml: malformed line: {raw}");
                };
                let site = key.trim().trim_matches('"');
                let Ok(rank) = value.trim().parse::<u32>() else {
                    panic!("lockranks.toml: bad rank for {site}: {raw}");
                };
                if map.insert(site, rank).is_some() {
                    panic!("lockranks.toml: duplicate site {site}");
                }
            }
            map
        })
    }

    thread_local! {
        /// Ranks (and sites, for messages) of the locks this thread holds.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// A held-lock token; popping happens on drop (out-of-order drops pop
    /// the matching entry, not necessarily the top).
    #[derive(Debug)]
    #[must_use = "bind to a named local spanning the lock guard's scope"]
    pub struct Held {
        site: &'static str,
    }

    /// Records an acquisition at `site`, panicking on a rank inversion.
    pub fn acquire(site: &'static str) -> Held {
        let Some(&rank) = ranks().get(site) else {
            panic!(
                "lockrank: site {site:?} is not in lockranks.toml — \
                 run `cargo xtask analyze --emit-lockranks`"
            );
        };
        HELD.with(|held| {
            let mut stack = held.borrow_mut();
            if let Some(&(top_rank, top_site)) = stack.last() {
                assert!(
                    rank > top_rank,
                    "lockrank: acquiring {site} (rank {rank}) while holding {top_site} \
                     (rank {top_rank}) — violates the hierarchy in lockranks.toml"
                );
            }
            stack.push((rank, site));
        });
        Held { site }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut stack = held.borrow_mut();
                if let Some(idx) = stack.iter().rposition(|&(_, s)| s == self.site) {
                    stack.remove(idx);
                }
            });
        }
    }

    /// The number of lock sites this thread currently holds (test helper).
    pub fn held_depth() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(all(not(loom), any(debug_assertions, cad3_lockrank)))]
pub use imp::{acquire, held_depth, Held};

#[cfg(all(not(loom), any(debug_assertions, cad3_lockrank)))]
#[cfg(test)]
mod tests {
    #[test]
    fn increasing_ranks_are_accepted() {
        let a = crate::rank_scope!("cad3_stream::Broker::topics");
        let b = crate::rank_scope!("cad3_stream::SharedTopic::partitions");
        let c = crate::rank_scope!("cad3::RsuNode::shards");
        assert_eq!(crate::held_depth(), 3);
        drop((a, b, c));
        assert_eq!(crate::held_depth(), 0);
    }

    #[test]
    #[should_panic(expected = "violates the hierarchy")]
    fn inverted_acquisition_panics() {
        let _shards = crate::rank_scope!("cad3::RsuNode::shards");
        let _topics = crate::rank_scope!("cad3_stream::Broker::topics");
    }

    #[test]
    #[should_panic(expected = "violates the hierarchy")]
    fn equal_rank_reacquisition_panics() {
        let _a = crate::rank_scope!("cad3_stream::SharedTopic::partitions");
        let _b = crate::rank_scope!("cad3_stream::SharedTopic::partitions");
    }

    #[test]
    #[should_panic(expected = "not in lockranks.toml")]
    fn unknown_site_panics() {
        let _x = crate::rank_scope!("cad3_nonexistent::Struct::field");
    }

    #[test]
    fn out_of_order_drop_pops_the_matching_entry() {
        let a = crate::rank_scope!("cad3_stream::Broker::topics");
        let b = crate::rank_scope!("cad3_stream::SharedTopic::partitions");
        drop(a);
        assert_eq!(crate::held_depth(), 1);
        // `shards` outranks the still-held partition mutex.
        let _c = crate::rank_scope!("cad3::RsuNode::shards");
        drop(b);
        assert_eq!(crate::held_depth(), 1);
    }

    #[test]
    fn stacks_are_per_thread() {
        let _shards = crate::rank_scope!("cad3::RsuNode::shards");
        // A fresh thread starts with an empty stack, so a lower rank is fine.
        std::thread::spawn(|| {
            let _topics = crate::rank_scope!("cad3_stream::Broker::topics");
            assert_eq!(crate::held_depth(), 1);
        })
        .join()
        .expect("witness thread");
    }
}
