//! Budgeted benchmark cells.
//!
//! The paper's baseline runs died two ways: OOM-killed by the kernel
//! (HashRF at large `r`) or simply never finishing (DS at large `r`). The
//! harness refuses the first deterministically instead of letting the
//! process die: a cell whose footprint the [`CellBudget`]'s [`RunGuard`]
//! refuses is reported as the paper's `-` table entry. DS cells past their
//! budget are rate-extrapolated instead (see `runner`).

use bfhrf::{RunBudget, RunGuard};

/// One cell's resource envelope: the [`RunGuard`] its guarded allocations
/// and builds are checked against.
#[derive(Debug, Clone, Default)]
pub struct CellBudget {
    /// The guard handed to the cell body.
    pub guard: RunGuard,
}

impl CellBudget {
    /// Cap the cell's guarded allocations at `max_bytes`.
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        CellBudget {
            guard: RunGuard::with_budget(RunBudget::with_max_bytes(max_bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfhrf::{BfhBuilder, CoreError};
    use phylo::TreeCollection;
    use std::time::{Duration, Instant};

    fn coll() -> TreeCollection {
        TreeCollection::parse("((A,B),(C,D));\n((A,C),(B,D));\n((A,D),(B,C));").unwrap()
    }

    /// The parallel build under `cell`'s guard: the sequential build is
    /// not budgeted, so it has nothing to refuse.
    fn build(cell: &CellBudget) -> Result<bfhrf::FrozenBfh, CoreError> {
        let c = coll();
        BfhBuilder::new()
            .parallel(true)
            .guard(cell.guard.clone())
            .freeze_trees(&c.trees, &c.taxa)
    }

    #[test]
    fn unlimited_cell_completes() {
        let table = build(&CellBudget::default()).expect("cell completes");
        assert_eq!(table.n_trees(), 3);
    }

    #[test]
    fn byte_ceiling_refuses_with_dash() {
        let err = build(&CellBudget::with_max_bytes(1)).unwrap_err();
        assert!(matches!(err, CoreError::ResourceLimit(_)), "{err:?}");
        assert!(err.to_string().contains("resource limit"), "{err}");
    }

    #[test]
    fn elapsed_deadline_is_dnf() {
        let cell = CellBudget {
            guard: RunGuard::with_budget(RunBudget {
                max_bytes: None,
                deadline: Some(Instant::now() - Duration::from_secs(1)),
            }),
        };
        let err = build(&cell).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn cancellation_is_dnf() {
        let cell = CellBudget::default();
        cell.guard.cancel.cancel();
        let err = build(&cell).unwrap_err();
        assert!(matches!(err, CoreError::Cancelled(_)), "{err:?}");
    }

    #[test]
    fn panics_are_isolated_to_the_cell() {
        let mut guard = RunGuard::default();
        guard.inject_panic_at(1);
        let err = build(&CellBudget { guard }).unwrap_err();
        assert!(matches!(err, CoreError::WorkerPanic(_)), "{err:?}");
        // and the harness thread is still alive to run the next cell
        assert_eq!(build(&CellBudget::default()).unwrap().n_trees(), 3);
    }
}
