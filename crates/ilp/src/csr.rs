//! Flat adjacency lists.

/// A flat adjacency list (CSR): one offsets array and one entry list for
/// the whole graph, so building it allocates twice, not once per node.
/// Node `v`'s entries are `entries[offsets[v]..offsets[v + 1]]`, in the
/// order they were given. The solver's propagation and spanning tree, and
/// the scheduler's graph walks, read their graphs through it.
///
/// # Examples
///
/// ```
/// use ilp::Csr;
///
/// // Successors of three nodes, from (node, successor) pairs.
/// let succs = Csr::new(3, [(2, 0), (0, 1), (2, 1)].into_iter());
/// assert_eq!(succs.of(0), &[1]);
/// assert!(succs.of(1).is_empty());
/// assert_eq!(succs.of(2), &[0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Csr<T> {
    offsets: Vec<usize>,
    entries: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// The lists of `nodes` nodes from `(node, entry)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a node `>= nodes`.
    pub fn new<I>(nodes: usize, pairs: I) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let mut csr = Csr::default();
        csr.fill(nodes, pairs);
        csr
    }

    /// Refills the lists in place, reusing both buffers: a refill with no
    /// more nodes and entries than before allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a node `>= nodes`.
    pub fn fill<I>(&mut self, nodes: usize, pairs: I)
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        self.offsets.clear();
        self.offsets.resize(nodes + 1, 0);
        for (v, _) in pairs.clone() {
            self.offsets[v + 1] += 1;
        }
        for v in 0..nodes {
            self.offsets[v + 1] += self.offsets[v];
        }
        // Filling walks `offsets[v]` from the start of `v`'s run to its
        // end, which is where `v + 1`'s run starts; one shift restores it.
        self.entries.clear();
        self.entries.resize(self.offsets[nodes], T::default());
        for (v, entry) in pairs {
            self.entries[self.offsets[v]] = entry;
            self.offsets[v] += 1;
        }
        self.offsets.copy_within(0..nodes, 1);
        self.offsets[0] = 0;
    }

    /// Node `v`'s entries.
    pub fn of(&self, v: usize) -> &[T] {
        &self.entries[self.offsets[v]..self.offsets[v + 1]]
    }
}
