//! Deterministic floor descriptions.
//!
//! A [`FloorSpec`] is a *generator*, not a container: boards, their
//! seeds and their trial mixes are derived on demand from the floor
//! seed via forked RNG substreams, so a thousand-board floor costs a
//! few dozen bytes to describe and every board is a pure function of
//! its id — the root of the fleet's determinism invariant (scheduling
//! can never change what a board computes, only when).

use crate::error::FleetError;
use sint_core::campaign::{Campaign, Trial};
use sint_core::session::{ObservationMethod, SessionConfig};
use sint_core::MethodPlanner;
use sint_interconnect::defect::Defect;
use sint_interconnect::params::BusParams;
use sint_runtime::rng::Rng64;
use std::time::Duration;

/// One tenant of the test floor. Boards are dealt to clients
/// round-robin by board id; a client with a budget runs all of its
/// boards under one budgeted child of the fleet-wide cancellation
/// token, so exhausting it sheds only that client's remaining trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Display name, carried into summaries and trial records.
    pub name: String,
    /// Wall-clock budget across all of the client's boards; `None`
    /// admits the client unconditionally.
    pub budget: Option<Duration>,
}

impl ClientSpec {
    /// An unbudgeted client.
    #[must_use]
    pub fn new(name: impl Into<String>) -> ClientSpec {
        ClientSpec { name: name.into(), budget: None }
    }

    /// A client admitted with a wall-clock budget (measured from the
    /// start of the fleet run).
    #[must_use]
    pub fn with_budget(name: impl Into<String>, budget: Duration) -> ClientSpec {
        ClientSpec { name: name.into(), budget: Some(budget) }
    }
}

/// One board of the floor, derived from the spec: `id` names it,
/// `client` indexes the floor's client roster, `seed` keys its trial
/// mix and die variation. `Copy` by design — boards are passed to the
/// engine's workers by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardSpec {
    /// Position of the board on the floor (also its checkpoint key).
    pub id: usize,
    /// Index into [`FloorSpec::clients`].
    pub client: usize,
    /// Per-board RNG seed, forked from the floor seed by board id.
    pub seed: u64,
}

/// Lumped segments per wire of every board's solver grid: deliberately
/// coarse, the cheap configuration that still reproduces the
/// detect/miss split.
const SOLVER_SEGMENTS: usize = 2;
/// Timestep of every board's solver grid (s).
const SOLVER_DT: f64 = 10e-12;

/// A deterministic description of a whole test floor.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorSpec {
    boards: usize,
    wires: usize,
    trials_per_board: usize,
    seed: u64,
    clients: Vec<ClientSpec>,
    planner: Option<MethodPlanner>,
    adaptive: bool,
}

impl FloorSpec {
    /// A floor of `boards` boards with the default geometry: 3-wire
    /// buses on a coarse (2-segment, 10 ps) solver grid — the cheap
    /// configuration that still reproduces the detect/miss split — four
    /// trials per board, and a single unbudgeted client.
    #[must_use]
    pub fn new(boards: usize) -> FloorSpec {
        FloorSpec {
            boards,
            wires: 3,
            trials_per_board: 4,
            seed: 0x5EED_F10E,
            clients: vec![ClientSpec::new("default")],
            planner: None,
            adaptive: false,
        }
    }

    /// Installs a cost-model [`MethodPlanner`] on every board's
    /// campaign: the observation method is chosen from the floor's bus
    /// width, the planner's defect prior and its TCK budget instead of
    /// being pinned to method 1.
    #[must_use]
    pub fn planner(mut self, planner: MethodPlanner) -> FloorSpec {
        self.planner = Some(planner);
        self
    }

    /// Switches every board to the adaptive campaign engine: a
    /// per-board [`sint_core::mafm::CoverageLedger`] drops pattern
    /// halves whose `(victim, fault)` pairs were already detected, and
    /// probes escalate to binary-search localization only where they
    /// flag. Trial records gain nonzero `dropped` / `escalation`
    /// counters; determinism is unaffected because each board folds its
    /// ledger serially.
    #[must_use]
    pub fn adaptive(mut self, adaptive: bool) -> FloorSpec {
        self.adaptive = adaptive;
        self
    }

    /// Overrides the bus width of every board.
    #[must_use]
    pub fn wires(mut self, wires: usize) -> FloorSpec {
        self.wires = wires;
        self
    }

    /// Overrides the number of trials each board runs.
    #[must_use]
    pub fn trials_per_board(mut self, trials: usize) -> FloorSpec {
        self.trials_per_board = trials;
        self
    }

    /// Overrides the floor seed (every board's mix re-derives).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> FloorSpec {
        self.seed = seed;
        self
    }

    /// Replaces the client roster. Boards are dealt round-robin, so
    /// with `boards >= clients.len()` every client owns at least one.
    #[must_use]
    pub fn with_clients(mut self, clients: Vec<ClientSpec>) -> FloorSpec {
        self.clients = clients;
        self
    }

    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// [`FleetError::BadSpec`] naming the first problem found.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.boards == 0 {
            return Err(FleetError::spec("a floor needs at least one board"));
        }
        if self.wires < 2 {
            return Err(FleetError::spec("MA trials need at least two wires"));
        }
        if self.trials_per_board == 0 {
            return Err(FleetError::spec("a board needs at least one trial"));
        }
        if self.clients.is_empty() {
            return Err(FleetError::spec("a floor needs at least one client"));
        }
        Ok(())
    }

    /// Number of boards on the floor.
    #[must_use]
    pub fn boards(&self) -> usize {
        self.boards
    }

    /// Bus width of every board — also the size of the chain a board
    /// supervisor's re-admission probe scans.
    #[must_use]
    pub fn wires_each(&self) -> usize {
        self.wires
    }

    /// The client roster, in admission order.
    #[must_use]
    pub fn clients(&self) -> &[ClientSpec] {
        &self.clients
    }

    /// Whether boards run the adaptive campaign engine.
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// The board at position `id`: client by round-robin deal, seed by
    /// an id-keyed fork of the floor seed. Pure — any caller at any
    /// time gets the same board.
    #[must_use]
    pub fn board(&self, id: usize) -> BoardSpec {
        BoardSpec {
            id,
            client: id % self.clients.len(),
            seed: Rng64::new(self.seed).fork(id as u64).gen_u64(),
        }
    }

    /// The board's trial mix, derived from its seed: roughly a quarter
    /// healthy controls, half clearly-detectable crosstalk defects and
    /// a quarter borderline ones, spread over the bus — enough variety
    /// that per-client statistics mean something, fully reproducible.
    #[must_use]
    pub fn trials(&self, board: &BoardSpec) -> Vec<Trial> {
        let mut rng = Rng64::new(board.seed);
        (0..self.trials_per_board)
            .map(|_| {
                let wire = rng.gen_index(self.wires);
                match rng.gen_index(4) {
                    0 => Trial::control(),
                    1 | 2 => Trial::defective(Defect::CouplingBoost {
                        wire,
                        factor: 4.0 + 4.0 * rng.gen_f64(),
                    }),
                    _ => Trial::defective(Defect::CouplingBoost {
                        wire,
                        factor: 1.01 + 0.08 * rng.gen_f64(),
                    }),
                }
            })
            .collect()
    }

    /// The campaign every board runs: the floor's bus geometry on its
    /// solver grid, method-1 sessions (or whatever the installed
    /// [`MethodPlanner`] picks for the width).
    #[must_use]
    pub fn campaign(&self) -> Campaign {
        let campaign = Campaign::new(self.wires)
            .bus_params(BusParams::dsm_bus(self.wires).segments(SOLVER_SEGMENTS))
            .session(SessionConfig {
                dt: SOLVER_DT,
                ..SessionConfig::method(ObservationMethod::Once)
            });
        match self.planner {
            Some(planner) => campaign.planner(planner),
            None => campaign,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boards_are_pure_functions_of_their_id() {
        let spec = FloorSpec::new(16).with_clients(vec![
            ClientSpec::new("a"),
            ClientSpec::new("b"),
            ClientSpec::with_budget("c", Duration::ZERO),
        ]);
        let b5 = spec.board(5);
        assert_eq!(b5, spec.board(5), "board derivation is deterministic");
        assert_eq!(b5.client, 2, "round-robin deal");
        assert_eq!(spec.trials(&b5), spec.trials(&b5));
        assert_ne!(spec.board(4).seed, b5.seed, "neighbours get distinct seeds");
    }

    #[test]
    fn trial_mix_has_controls_and_defects() {
        let spec = FloorSpec::new(1).trials_per_board(64);
        let trials = spec.trials(&spec.board(0));
        let controls = trials.iter().filter(|t| t.defect.is_none()).count();
        assert!(controls > 0 && controls < 64, "{controls} controls of 64");
    }

    #[test]
    fn validation_rejects_degenerate_floors() {
        assert!(FloorSpec::new(0).validate().is_err());
        assert!(FloorSpec::new(1).wires(1).validate().is_err());
        assert!(FloorSpec::new(1).trials_per_board(0).validate().is_err());
        assert!(FloorSpec::new(1).with_clients(vec![]).validate().is_err());
        assert!(FloorSpec::new(4).validate().is_ok());
    }

    #[test]
    fn planner_and_adaptive_knobs_ride_into_the_campaign() {
        let spec = FloorSpec::new(1)
            .wires(8)
            .planner(MethodPlanner::new(1.0).unwrap())
            .adaptive(true);
        assert!(spec.is_adaptive());
        let campaign = spec.campaign();
        assert_eq!(campaign.method_planner(), Some(&MethodPlanner::new(1.0).unwrap()));
        assert!(!FloorSpec::new(1).is_adaptive(), "exhaustive by default");
        assert!(FloorSpec::new(1).campaign().method_planner().is_none());
    }

    #[test]
    fn reseeding_changes_the_mix() {
        let a = FloorSpec::new(4);
        let b = FloorSpec::new(4).seed(99);
        assert_ne!(a.board(0).seed, b.board(0).seed);
    }
}
