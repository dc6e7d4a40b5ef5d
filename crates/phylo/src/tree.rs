//! Arena-allocated phylogenetic trees.

use crate::taxa::{TaxonId, TaxonSet};
use crate::PhyloError;
use std::fmt;

/// Index of a node within one [`Tree`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Child slots kept inline before spilling to the heap. Bifurcating trees
/// (the overwhelmingly common shape) have at most 2 children per internal
/// node and at most 3 at an unrooted-style root, so 4 inline slots make
/// child storage allocation-free for them; the enum rounds to the same
/// 32 bytes either way.
const INLINE_CHILDREN: usize = 4;

/// A node's child list: inline up to [`INLINE_CHILDREN`], heap `Vec`
/// beyond. Building a bifurcating tree touches the allocator only for the
/// node arena itself — this matters because the workloads parse and decode
/// hundreds of thousands of trees (one child list per internal node).
#[derive(Debug, Clone)]
pub(crate) enum ChildList {
    Inline {
        buf: [NodeId; INLINE_CHILDREN],
        len: u8,
    },
    Spilled(Vec<NodeId>),
}

impl ChildList {
    pub(crate) const fn new() -> Self {
        ChildList::Inline {
            buf: [NodeId(0); INLINE_CHILDREN],
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, id: NodeId) {
        match self {
            ChildList::Inline { buf, len } => {
                let n = *len as usize;
                if n < INLINE_CHILDREN {
                    buf[n] = id;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_CHILDREN * 2);
                    v.extend_from_slice(&buf[..n]);
                    v.push(id);
                    *self = ChildList::Spilled(v);
                }
            }
            ChildList::Spilled(v) => v.push(id),
        }
    }

    pub(crate) fn clear(&mut self) {
        *self = ChildList::new();
    }

    /// Remove the child at `pos`, shifting the rest left (insertion order
    /// is meaningful — Newick output preserves it).
    pub(crate) fn remove(&mut self, pos: usize) {
        match self {
            ChildList::Inline { buf, len } => {
                let n = *len as usize;
                assert!(pos < n, "child index out of range");
                buf.copy_within(pos + 1..n, pos);
                *len -= 1;
            }
            ChildList::Spilled(v) => {
                v.remove(pos);
            }
        }
    }
}

impl std::ops::Deref for ChildList {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        match self {
            ChildList::Inline { buf, len } => &buf[..*len as usize],
            ChildList::Spilled(v) => v,
        }
    }
}

impl std::ops::DerefMut for ChildList {
    #[inline]
    fn deref_mut(&mut self) -> &mut [NodeId] {
        match self {
            ChildList::Inline { buf, len } => &mut buf[..*len as usize],
            ChildList::Spilled(v) => v,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: ChildList,
    pub(crate) taxon: Option<TaxonId>,
    pub(crate) length: Option<f64>,
}

/// A rooted tree over taxa from a shared [`TaxonSet`].
///
/// Nodes live in a flat arena (`Vec`), children as index lists; this is the
/// cache-friendly layout the workloads need — the Insect experiment parses
/// 149k trees of 144 taxa, so per-node allocation overhead matters.
///
/// RF is defined on *unrooted* trees; rooting is a representation artifact
/// and the bipartition extraction in [`crate::bipartition`] is
/// rooting-invariant. Leaves carry a [`TaxonId`]; internal nodes may carry
/// branch lengths (used by the weighted-RF variant).
#[derive(Clone, Default)]
pub struct Tree {
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl Tree {
    /// Create an empty tree (no nodes).
    pub fn new() -> Self {
        Tree::default()
    }

    /// Create an empty tree whose arena is pre-sized for `n` nodes.
    ///
    /// Decoders that know the node count up front (the phylo-wire record
    /// codec reads it from a header, the Newick parser counts it) avoid
    /// every arena reallocation this way.
    pub fn with_node_capacity(n: usize) -> Self {
        Tree {
            nodes: Vec::with_capacity(n),
            root: None,
        }
    }

    /// Create a tree with a fresh root node.
    pub fn with_root() -> (Self, NodeId) {
        let mut t = Tree::new();
        let r = t.add_root();
        (t, r)
    }

    /// Add the root node. Panics if a root already exists.
    pub fn add_root(&mut self) -> NodeId {
        assert!(self.root.is_none(), "tree already has a root");
        let id = self.push(Node {
            parent: None,
            children: ChildList::new(),
            taxon: None,
            length: None,
        });
        self.root = Some(id);
        id
    }

    /// Add a new child under `parent`.
    pub fn add_child(&mut self, parent: NodeId) -> NodeId {
        let id = self.push(Node {
            parent: Some(parent),
            children: ChildList::new(),
            taxon: None,
            length: None,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Add a leaf with `taxon` under `parent`.
    pub fn add_leaf(&mut self, parent: NodeId, taxon: TaxonId) -> NodeId {
        let id = self.add_child(parent);
        self.nodes[id.index()].taxon = Some(taxon);
        id
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// The root node, if any node exists.
    #[inline]
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Total number of nodes in the arena (including detached ones).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Slots the arena has allocated (tests check parsers size it exactly).
    #[cfg(test)]
    pub(crate) fn node_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Parent of `node` (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Children of `node`, in insertion order.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Whether `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node.index()].children.is_empty()
    }

    /// The taxon attached to `node`, if any.
    #[inline]
    pub fn taxon(&self, node: NodeId) -> Option<TaxonId> {
        self.nodes[node.index()].taxon
    }

    /// Attach `taxon` to `node`.
    pub fn set_taxon(&mut self, node: NodeId, taxon: Option<TaxonId>) {
        self.nodes[node.index()].taxon = taxon;
    }

    /// Branch length of the edge above `node`, if any.
    #[inline]
    pub fn length(&self, node: NodeId) -> Option<f64> {
        self.nodes[node.index()].length
    }

    /// Set the branch length of the edge above `node`.
    pub fn set_length(&mut self, node: NodeId, length: Option<f64>) {
        self.nodes[node.index()].length = length;
    }

    /// All leaf node ids reachable from the root, in postorder.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.postorder()
            .into_iter()
            .filter(|&n| self.is_leaf(n))
            .collect()
    }

    /// Number of leaves reachable from the root.
    pub fn leaf_count(&self) -> usize {
        match self.root {
            None => 0,
            Some(_) => self
                .postorder()
                .iter()
                .filter(|&&n| self.is_leaf(n))
                .count(),
        }
    }

    /// Detach `child` from `parent`'s child list (the subtree stays in the
    /// arena, unreachable). Panics if `child` is not a child of `parent`.
    pub fn detach_child(&mut self, parent: NodeId, child: NodeId) {
        let kids = &mut self.nodes[parent.index()].children;
        let pos = kids
            .iter()
            .position(|&c| c == child)
            .expect("detach_child: not a child of parent");
        kids.remove(pos);
        self.nodes[child.index()].parent = None;
    }

    /// Attach an existing (detached) node `child` under `parent`.
    pub fn attach_child(&mut self, parent: NodeId, child: NodeId) {
        assert!(
            self.nodes[child.index()].parent.is_none(),
            "attach_child: child already attached"
        );
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(child);
    }

    /// Collapse reachable internal nodes that have exactly one child,
    /// splicing the child into the grandparent and summing branch lengths.
    /// A unary root is replaced by its child. Needed after restriction to a
    /// taxa subset (paper §VII.E) and after SPR pruning.
    pub fn suppress_unifurcations(&mut self) {
        let Some(mut root) = self.root else { return };
        // Repeatedly shrink a unary root.
        while self.nodes[root.index()].children.len() == 1 && self.taxon(root).is_none() {
            let child = self.nodes[root.index()].children[0];
            self.nodes[child.index()].parent = None;
            // Root edges carry no meaningful length; drop the child's.
            self.nodes[root.index()].children.clear();
            self.root = Some(child);
            root = child;
        }
        for node in self.postorder() {
            if node == root {
                continue;
            }
            let n = &self.nodes[node.index()];
            if n.children.len() == 1 && n.taxon.is_none() {
                let child = n.children[0];
                let parent = n.parent.expect("non-root has parent");
                let extra = self.nodes[node.index()].length;
                // splice child into parent at node's position
                let kids = &mut self.nodes[parent.index()].children;
                let pos = kids.iter().position(|&c| c == node).unwrap();
                kids[pos] = child;
                self.nodes[child.index()].parent = Some(parent);
                self.nodes[node.index()].children.clear();
                self.nodes[node.index()].parent = None;
                if let Some(e) = extra {
                    let cl = &mut self.nodes[child.index()].length;
                    *cl = Some(cl.unwrap_or(0.0) + e);
                }
            }
        }
    }

    /// Check structural invariants and taxon uniqueness; returns the leaf
    /// count on success.
    ///
    /// Verified: a root exists, every reachable leaf carries a taxon, no
    /// taxon appears twice, parent/child links are mutually consistent.
    pub fn validate(&self, taxa: &TaxonSet) -> Result<usize, PhyloError> {
        let root = self.root.ok_or(PhyloError::Empty("tree"))?;
        if self.nodes[root.index()].parent.is_some() {
            return Err(PhyloError::Structure("root has a parent".into()));
        }
        let mut seen = vec![false; taxa.len()];
        let mut leaves = 0usize;
        for node in self.postorder() {
            for &c in self.children(node) {
                if self.parent(c) != Some(node) {
                    return Err(PhyloError::Structure(format!(
                        "child {c:?} of {node:?} has inconsistent parent link"
                    )));
                }
            }
            if self.is_leaf(node) {
                leaves += 1;
                match self.taxon(node) {
                    None => {
                        return Err(PhyloError::Structure(format!("leaf {node:?} has no taxon")))
                    }
                    Some(t) => {
                        if t.index() >= seen.len() {
                            return Err(PhyloError::Structure(format!(
                                "leaf taxon {t} outside namespace of {} taxa",
                                taxa.len()
                            )));
                        }
                        if seen[t.index()] {
                            return Err(PhyloError::DuplicateTaxon(taxa.label(t).to_string()));
                        }
                        seen[t.index()] = true;
                    }
                }
            }
        }
        Ok(leaves)
    }

    /// Whether every reachable internal node has exactly 2 children (the
    /// root may have 2 or 3 — both are standard rooted representations of a
    /// binary unrooted tree).
    pub fn is_binary(&self) -> bool {
        let Some(root) = self.root else { return false };
        self.postorder().into_iter().all(|n| {
            let k = self.children(n).len();
            if n == root {
                k == 2 || k == 3 || k == 0
            } else {
                k == 0 || k == 2
            }
        })
    }

    /// Nodes in postorder (children before parents), root last.
    /// Returns an empty vector for an empty tree.
    pub fn postorder(&self) -> Vec<NodeId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(self.nodes.len());
        // Two-stack postorder: emit in reverse-preorder with children
        // visited right-to-left, then reverse.
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend_from_slice(self.children(n));
        }
        out.reverse();
        out
    }

    /// Nodes in preorder (parents before children), root first.
    pub fn preorder(&self) -> Vec<NodeId> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            out.push(n);
            // push children reversed so the leftmost is visited first
            for &c in self.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tree{{nodes: {}, root: {:?}}}",
            self.nodes.len(),
            self.root
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's example ((A,B),(C,D)) by hand.
    fn example() -> (Tree, TaxonSet) {
        let mut taxa = TaxonSet::new();
        let (a, b, c, d) = (
            taxa.intern("A"),
            taxa.intern("B"),
            taxa.intern("C"),
            taxa.intern("D"),
        );
        let (mut t, root) = Tree::with_root();
        let left = t.add_child(root);
        let right = t.add_child(root);
        t.add_leaf(left, a);
        t.add_leaf(left, b);
        t.add_leaf(right, c);
        t.add_leaf(right, d);
        (t, taxa)
    }

    #[test]
    fn construction_and_queries() {
        let (t, taxa) = example();
        assert_eq!(t.num_nodes(), 7);
        assert_eq!(t.leaf_count(), 4);
        assert!(t.is_binary());
        assert_eq!(t.validate(&taxa).unwrap(), 4);
        let root = t.root().unwrap();
        assert_eq!(t.children(root).len(), 2);
        assert!(t.parent(root).is_none());
    }

    #[test]
    fn postorder_visits_children_first() {
        let (t, _) = example();
        let order = t.postorder();
        assert_eq!(order.len(), 7);
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for n in &order {
            for &c in t.children(*n) {
                assert!(pos(c) < pos(*n), "child {c:?} after parent {n:?}");
            }
        }
        assert_eq!(*order.last().unwrap(), t.root().unwrap());
    }

    #[test]
    fn preorder_visits_parents_first() {
        let (t, _) = example();
        let order = t.preorder();
        assert_eq!(order[0], t.root().unwrap());
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for n in &order {
            for &c in t.children(*n) {
                assert!(pos(c) > pos(*n));
            }
        }
    }

    #[test]
    fn empty_tree_is_safe() {
        let t = Tree::new();
        assert!(t.root().is_none());
        assert!(t.postorder().is_empty());
        assert!(t.preorder().is_empty());
        assert_eq!(t.leaf_count(), 0);
        assert!(!t.is_binary());
    }

    #[test]
    fn validate_rejects_duplicate_taxa() {
        let mut taxa = TaxonSet::new();
        let a = taxa.intern("A");
        let (mut t, root) = Tree::with_root();
        t.add_leaf(root, a);
        t.add_leaf(root, a);
        assert_eq!(
            t.validate(&taxa),
            Err(PhyloError::DuplicateTaxon("A".into()))
        );
    }

    #[test]
    fn validate_rejects_untagged_leaf() {
        let taxa = TaxonSet::new();
        let (mut t, root) = Tree::with_root();
        t.add_child(root);
        assert!(matches!(t.validate(&taxa), Err(PhyloError::Structure(_))));
    }

    #[test]
    fn detach_and_attach() {
        let (mut t, taxa) = example();
        let root = t.root().unwrap();
        let left = t.children(root)[0];
        t.detach_child(root, left);
        assert_eq!(t.children(root).len(), 1);
        assert_eq!(t.leaf_count(), 2);
        t.attach_child(root, left);
        assert_eq!(t.leaf_count(), 4);
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn suppress_unifurcations_splices_and_sums_lengths() {
        // root -> u -> v -> leaf(A), with lengths 1.0 and 2.5 on v and leaf
        let mut taxa = TaxonSet::new();
        let a = taxa.intern("A");
        let b = taxa.intern("B");
        let (mut t, root) = Tree::with_root();
        let u = t.add_child(root);
        let v = t.add_child(u);
        t.set_length(v, Some(1.0));
        let leaf = t.add_leaf(v, a);
        t.set_length(leaf, Some(2.5));
        let leaf_b = t.add_leaf(root, b);
        t.set_length(leaf_b, Some(0.5));
        t.suppress_unifurcations();
        // u and v collapse: root -> leafA, root -> leafB
        let root = t.root().unwrap();
        assert_eq!(t.children(root).len(), 2);
        assert!(t.children(root).iter().all(|&c| t.is_leaf(c)));
        // A's length accumulated 2.5 + 1.0 (+ u's None)
        let a_node = *t
            .children(root)
            .iter()
            .find(|&&c| t.taxon(c) == Some(a))
            .unwrap();
        assert_eq!(t.length(a_node), Some(3.5));
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn suppress_unary_root() {
        let mut taxa = TaxonSet::new();
        let a = taxa.intern("A");
        let b = taxa.intern("B");
        let (mut t, root) = Tree::with_root();
        let inner = t.add_child(root);
        t.add_leaf(inner, a);
        t.add_leaf(inner, b);
        t.suppress_unifurcations();
        assert_eq!(t.root(), Some(inner));
        assert_eq!(t.children(inner).len(), 2);
        assert!(t.validate(&taxa).is_ok());
    }

    #[test]
    fn is_binary_accepts_trifurcating_root() {
        let mut taxa = TaxonSet::new();
        let (mut t, root) = Tree::with_root();
        for l in ["A", "B", "C"] {
            let id = taxa.intern(l);
            t.add_leaf(root, id);
        }
        assert!(t.is_binary());
        let extra = taxa.intern("D");
        t.add_leaf(root, extra);
        assert!(!t.is_binary(), "4-child root is not binary");
    }
}
