//! Seeded inputs. Every tree is a gene tree of the insect preset
//! (`phylo_sim::DatasetSpec::insect()`, n = 144), sampled with the run's
//! seed, and the seed also fixes the query-pool and mutation orders. The
//! program under test only ever sees files and frames made from these.
//!
//! The species tree is the preset's own, whatever the seed: every seed
//! samples different gene trees from the same phylogeny, so the shape of
//! the work (distinct splits, table size, hit rate) stays put from seed
//! to seed and only the trees change. With a seeded species tree the
//! table size swings by ~10% between seeds and the power-of-two table
//! capacities flip, which would read as noise in every metric.

use phylo::{BipartitionScratch, TaxonSet, Tree};
use phylo_sim::{kingman_species_tree, DatasetSpec, MscSimulator};

/// SplitMix64: a tiny seeded generator for orders and samples.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Trees held out of the reference set: a query pool and mutation trees.
pub struct Heldout {
    pub taxa: TaxonSet,
    pub pool: Vec<Tree>,
    pub holdout: Vec<Tree>,
}

/// Simulate `n_pool + n_holdout` held-out trees, then stream `r` reference
/// trees through `each_ref` without keeping them. The same seed gives the
/// same trees in the same order.
pub fn generate(
    seed: u64,
    r: usize,
    n_pool: usize,
    n_holdout: usize,
    mut each_ref: impl FnMut(usize, &Tree, &TaxonSet),
) -> Heldout {
    let spec = DatasetSpec::insect();
    // The construction of `phylo_sim::generate`, one tree at a time, with
    // the gene-tree sampler seeded by the run.
    let (species, taxa) = kingman_species_tree(spec.n_taxa, spec.species_scale, spec.seed);
    let mut sim = MscSimulator::new(
        species,
        taxa.clone(),
        spec.pop_scale,
        seed.wrapping_mul(0x9E37_79B9),
    );
    let mut pool: Vec<Tree> = (0..n_pool).map(|_| sim.gene_tree()).collect();
    let mut holdout: Vec<Tree> = (0..n_holdout).map(|_| sim.gene_tree()).collect();
    for i in 0..r {
        let tree = sim.gene_tree();
        each_ref(i, &tree, &taxa);
    }
    let mut order = SplitMix::new(seed ^ 0x5EED_0F0D_E12A_B0A7);
    order.shuffle(&mut pool);
    order.shuffle(&mut holdout);
    Heldout {
        taxa,
        pool,
        holdout,
    }
}

/// The split hashes of `tree`, sorted, for set arithmetic between trees.
pub fn split_hashes(tree: &Tree, taxa: &TaxonSet, scratch: &mut BipartitionScratch) -> Vec<u128> {
    let mut h = scratch.batch_splits(tree, taxa).hashes().to_vec();
    h.sort_unstable();
    h
}

/// Size of the intersection of two sorted hash lists.
pub fn shared(a: &[u128], b: &[u128]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let newick = |seed| {
            let mut refs = Vec::new();
            let h = generate(seed, 3, 2, 1, |_, t, taxa| {
                refs.push(phylo::write_newick(t, taxa))
            });
            let pool: Vec<String> = h
                .pool
                .iter()
                .map(|t| phylo::write_newick(t, &h.taxa))
                .collect();
            (refs, pool)
        };
        assert_eq!(newick(7), newick(7));
        assert_ne!(newick(7), newick(8));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut a);
        let mut b: Vec<u32> = (0..50).collect();
        SplitMix::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }

    #[test]
    fn shared_counts_common_hashes() {
        assert_eq!(shared(&[1, 3, 5, 9], &[2, 3, 4, 9, 10]), 2);
        assert_eq!(shared(&[], &[1]), 0);
    }
}
