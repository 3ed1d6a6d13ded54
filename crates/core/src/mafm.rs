//! The maximum-aggressor (MA) integrity fault model (paper §2.3).
//!
//! One wire at a time is the **victim**; every other wire is an
//! **aggressor** switching in unison to produce the worst-case coupling
//! effect on the victim. Six faults are defined (Fig 3):
//!
//! | fault | victim | aggressors | effect |
//! |-------|--------|------------|--------|
//! | `Pg`  | holds 0 | rise      | positive glitch above ground |
//! | `NgBar` (N̄g) | holds 0 | fall | negative undershoot below ground |
//! | `Ng`  | holds 1 | fall      | negative glitch below Vdd |
//! | `PgBar` (P̄g) | holds 1 | rise | positive overshoot above Vdd |
//! | `Rs`  | rises  | fall       | rising-edge delay (skew) |
//! | `Fs`  | falls  | rise       | falling-edge delay (skew) |
//!
//! Each fault is excited by a *pair* of consecutive vectors, so a naive
//! (conventional scan) campaign needs `6 faults × 2 vectors = 12`
//! scanned vectors per victim. The paper's key observation (§3.1) is
//! that after reordering, the aggressors toggle every pattern and the
//! victim toggles every *second* pattern, so the whole per-victim
//! sequence is generated on-chip from just **two scanned initial
//! values** — that reordered schedule is [`pgbsc_sequence`].

use crate::error::CoreError;
use sint_interconnect::drive::{DriveLevel, VectorPair};
use sint_jtag::QuarantineSet;
use sint_logic::BitVector;
use sint_runtime::json::{Json, ToJson};
use std::fmt;

/// One of the six MA integrity faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IntegrityFault {
    /// Positive glitch: victim quiet at 0, aggressors rise.
    Pg,
    /// Positive overshoot: victim quiet at 1, aggressors rise.
    PgBar,
    /// Negative glitch: victim quiet at 1, aggressors fall.
    Ng,
    /// Negative undershoot: victim quiet at 0, aggressors fall.
    NgBar,
    /// Rising skew: victim rises while aggressors fall.
    Rs,
    /// Falling skew: victim falls while aggressors rise.
    Fs,
}

impl IntegrityFault {
    /// All six faults in the paper's enumeration order.
    pub const ALL: [IntegrityFault; 6] = [
        IntegrityFault::Pg,
        IntegrityFault::PgBar,
        IntegrityFault::Ng,
        IntegrityFault::NgBar,
        IntegrityFault::Rs,
        IntegrityFault::Fs,
    ];

    /// Victim level before the transition.
    #[must_use]
    fn victim_before(self) -> DriveLevel {
        match self {
            IntegrityFault::Pg | IntegrityFault::NgBar | IntegrityFault::Rs => DriveLevel::Low,
            IntegrityFault::PgBar | IntegrityFault::Ng | IntegrityFault::Fs => DriveLevel::High,
        }
    }

    /// Victim level after the transition (equal to *before* for the
    /// four glitch faults).
    #[must_use]
    fn victim_after(self) -> DriveLevel {
        match self {
            IntegrityFault::Pg | IntegrityFault::NgBar | IntegrityFault::Fs => DriveLevel::Low,
            IntegrityFault::PgBar | IntegrityFault::Ng | IntegrityFault::Rs => DriveLevel::High,
        }
    }

    /// Aggressor level before the transition.
    #[must_use]
    fn aggressor_before(self) -> DriveLevel {
        match self {
            IntegrityFault::Pg | IntegrityFault::PgBar | IntegrityFault::Fs => DriveLevel::Low,
            IntegrityFault::Ng | IntegrityFault::NgBar | IntegrityFault::Rs => DriveLevel::High,
        }
    }

    /// Aggressor level after the transition (always the complement:
    /// aggressors switch on every MA pattern).
    #[must_use]
    fn aggressor_after(self) -> DriveLevel {
        match self.aggressor_before() {
            DriveLevel::Low => DriveLevel::High,
            DriveLevel::High => DriveLevel::Low,
        }
    }

    /// Whether the fault manifests as noise (glitch) on a quiet victim.
    #[must_use]
    pub fn is_glitch(self) -> bool {
        !self.is_skew()
    }

    /// Whether the fault manifests as added delay on a switching victim.
    #[must_use]
    pub fn is_skew(self) -> bool {
        matches!(self, IntegrityFault::Rs | IntegrityFault::Fs)
    }

    /// The faults covered by one PGBSC half-sequence starting from the
    /// given initial value (see [`pgbsc_sequence`]): `0` → `[Pg, Rs,
    /// P̄g]`, `1` → `[Ng, Fs, N̄g]`.
    #[must_use]
    pub fn covered_by_initial(initial: DriveLevel) -> [IntegrityFault; 3] {
        match initial {
            DriveLevel::Low => [IntegrityFault::Pg, IntegrityFault::Rs, IntegrityFault::PgBar],
            DriveLevel::High => [IntegrityFault::Ng, IntegrityFault::Fs, IntegrityFault::NgBar],
        }
    }
}

impl fmt::Display for IntegrityFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IntegrityFault::Pg => "Pg",
            IntegrityFault::PgBar => "P̄g",
            IntegrityFault::Ng => "Ng",
            IntegrityFault::NgBar => "N̄g",
            IntegrityFault::Rs => "Rs",
            IntegrityFault::Fs => "Fs",
        };
        f.write_str(s)
    }
}

fn vector_for(width: usize, victim: usize, victim_level: DriveLevel, aggr: DriveLevel) -> Vec<DriveLevel> {
    (0..width).map(|w| if w == victim { victim_level } else { aggr }).collect()
}

/// The two-vector stimulus exciting `fault` on `victim` in a
/// `width`-wire bus (Fig 3).
///
/// # Errors
///
/// [`CoreError::VictimOutOfRange`] for a bad victim index or
/// [`CoreError::BadConfig`] for a bus of fewer than two wires.
pub fn fault_pair(
    width: usize,
    victim: usize,
    fault: IntegrityFault,
) -> Result<VectorPair, CoreError> {
    if width < 2 {
        return Err(CoreError::config("MA model needs at least two wires"));
    }
    if victim >= width {
        return Err(CoreError::VictimOutOfRange { victim, width });
    }
    let before = vector_for(width, victim, fault.victim_before(), fault.aggressor_before());
    let after = vector_for(width, victim, fault.victim_after(), fault.aggressor_after());
    Ok(VectorPair::new(before, after))
}

/// Classifies the MA fault represented by a consecutive vector pair with
/// respect to `victim`. `None` when the pair is not an MA pattern for
/// that victim (aggressors disagree or do not all switch).
#[must_use]
pub fn classify_pair(pair: &VectorPair, victim: usize) -> Option<IntegrityFault> {
    let width = pair.width();
    if victim >= width || width < 2 {
        return None;
    }
    // All aggressors must share levels and switch.
    let mut aggr_before = None;
    for w in (0..width).filter(|&w| w != victim) {
        match aggr_before {
            None => aggr_before = Some(pair.before(w)),
            Some(level) if level == pair.before(w) => {}
            _ => return None,
        }
        if !pair.switches(w) {
            return None;
        }
    }
    let aggr_before = aggr_before?;
    IntegrityFault::ALL.into_iter().find(|f| {
        f.victim_before() == pair.before(victim)
            && f.victim_after() == pair.after(victim)
            && f.aggressor_before() == aggr_before
    })
}

/// One scheduled pattern application: the vector pair, the victim it
/// targets and the fault it excites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledPattern {
    /// Victim wire index.
    pub victim: usize,
    /// Excited fault.
    pub fault: IntegrityFault,
    /// The two-vector stimulus.
    pub pair: VectorPair,
}

/// The **conventional** campaign: for every victim, every fault's two
/// vectors scanned in explicitly — `6` pairs (12 vectors) per victim,
/// `6·width` pairs total. This is the baseline whose test time is
/// `O(n²)` once scan length is accounted for (Table 5, row
/// "Conventional").
///
/// # Errors
///
/// [`CoreError::BadConfig`] for a bus of fewer than two wires.
pub fn conventional_schedule(width: usize) -> Result<Vec<ScheduledPattern>, CoreError> {
    if width < 2 {
        return Err(CoreError::config("MA model needs at least two wires"));
    }
    // Per-fault aggressor templates, built once and reused across every
    // victim: scheduling one pattern is then two vector clones plus a
    // single-element victim patch, instead of the branchy per-element
    // rebuild `fault_pair` does.
    let templates = IntegrityFault::ALL.map(|fault| {
        (fault, vec![fault.aggressor_before(); width], vec![fault.aggressor_after(); width])
    });
    let mut out = Vec::with_capacity(width * IntegrityFault::ALL.len());
    for victim in 0..width {
        for (fault, before_t, after_t) in &templates {
            let mut before = before_t.clone();
            before[victim] = fault.victim_before();
            let mut after = after_t.clone();
            after[victim] = fault.victim_after();
            out.push(ScheduledPattern {
                victim,
                fault: *fault,
                pair: VectorPair::new(before, after),
            });
        }
    }
    Ok(out)
}

/// The vector a PGBSC array drives after `updates` Update-DR events,
/// starting from `initial` everywhere (§3.1, Fig 5):
///
/// * aggressors toggle on **every** update;
/// * the victim toggles on every **second** update (updates 2, 4, …),
///   i.e. at half the aggressor frequency.
#[must_use]
pub fn pgbsc_vector(
    width: usize,
    victim: usize,
    initial: DriveLevel,
    updates: usize,
) -> Vec<DriveLevel> {
    let flip = |level: DriveLevel, times: usize| -> DriveLevel {
        if times % 2 == 1 {
            match level {
                DriveLevel::Low => DriveLevel::High,
                DriveLevel::High => DriveLevel::Low,
            }
        } else {
            level
        }
    };
    (0..width)
        .map(|w| if w == victim { flip(initial, updates / 2) } else { flip(initial, updates) })
        .collect()
}

/// The reordered on-chip sequence for one victim and one initial value:
/// the initial vector plus the three update-generated vectors, along
/// with the fault each of the three transitions excites.
///
/// Covers `[Pg, Rs, P̄g]` from initial 0 and `[Ng, Fs, N̄g]` from
/// initial 1 — together, all six faults from just two scanned values.
///
/// # Errors
///
/// As for [`fault_pair`].
pub fn pgbsc_sequence(
    width: usize,
    victim: usize,
    initial: DriveLevel,
) -> Result<Vec<ScheduledPattern>, CoreError> {
    if width < 2 {
        return Err(CoreError::config("MA model needs at least two wires"));
    }
    if victim >= width {
        return Err(CoreError::VictimOutOfRange { victim, width });
    }
    let mut out = Vec::with_capacity(3);
    for k in 0..3 {
        let before = pgbsc_vector(width, victim, initial, k);
        let after = pgbsc_vector(width, victim, initial, k + 1);
        let pair = VectorPair::new(before, after);
        let fault = classify_pair(&pair, victim)
            .expect("pgbsc sequence transitions are MA patterns by construction");
        out.push(ScheduledPattern { victim, fault, pair });
    }
    Ok(out)
}

/// The one-hot victim-select word for the PGBSC shift stage (Table 2):
/// bit `victim` set in an `width`-bit vector.
///
/// # Errors
///
/// [`CoreError::VictimOutOfRange`] for a bad index.
pub fn victim_select(width: usize, victim: usize) -> Result<BitVector, CoreError> {
    if victim >= width {
        return Err(CoreError::VictimOutOfRange { victim, width });
    }
    Ok(BitVector::one_hot(width, victim))
}

/// Number of raw test vectors the conventional campaign scans for a
/// `width`-wire bus: `12·width` (paper: "total number of required test
/// vectors … is 12n").
#[must_use]
pub fn conventional_vector_count(width: usize) -> usize {
    12 * width
}

/// The quiescent level a quarantined wire's driver holds for a whole
/// degraded session: whatever scan fill its PGBSC carries, the SoC
/// drives the wire at this level, so it never switches, contributes no
/// aggressor coupling, and its (untrustworthy) drive cell is never
/// relied on to toggle.
pub const QUARANTINE_PARK: DriveLevel = DriveLevel::Low;

/// [`classify_pair`] over the healthy wire subset: quarantined wires
/// must *hold* (they are parked, not driven as aggressors) and their
/// level is ignored; aggressor agreement and switching are required
/// only of healthy non-victim wires. `None` for a quarantined victim.
#[must_use]
pub fn classify_pair_masked(
    pair: &VectorPair,
    victim: usize,
    quarantine: &QuarantineSet,
) -> Option<IntegrityFault> {
    let width = pair.width();
    if victim >= width || quarantine.wires() != width || quarantine.is_quarantined(victim) {
        return None;
    }
    let mut aggr_before = None;
    for w in (0..width).filter(|&w| w != victim) {
        if quarantine.is_quarantined(w) {
            if pair.switches(w) {
                return None; // parked wires must stay parked
            }
            continue;
        }
        match aggr_before {
            None => aggr_before = Some(pair.before(w)),
            Some(level) if level == pair.before(w) => {}
            _ => return None,
        }
        if !pair.switches(w) {
            return None;
        }
    }
    let aggr_before = aggr_before?;
    IntegrityFault::ALL.into_iter().find(|f| {
        f.victim_before() == pair.before(victim)
            && f.victim_after() == pair.after(victim)
            && f.aggressor_before() == aggr_before
    })
}

/// Which of the `6·width` MA faults stay testable under a quarantine:
/// every fault whose victim is healthy survives (the aggressor set
/// shrinks but stays non-empty); every fault on a quarantined victim is
/// lost. With fewer than two healthy wires nothing is testable.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Bus width (total wires).
    pub width: usize,
    /// Quarantined wire indices, ascending.
    pub quarantined: Vec<usize>,
    /// Faults still testable, `(victim, fault)`, victim-major order.
    pub covered: Vec<(usize, IntegrityFault)>,
    /// Faults no longer testable, `(victim, fault)`, victim-major order.
    pub lost: Vec<(usize, IntegrityFault)>,
}

impl CoverageReport {
    /// Computes the report for a quarantine over a `width`-wire bus.
    /// The quarantine must describe exactly `width` wires.
    #[must_use]
    pub fn for_quarantine(width: usize, quarantine: &QuarantineSet) -> CoverageReport {
        let degradable = quarantine.wires() == width && quarantine.healthy_count() >= 2;
        let mut covered = Vec::new();
        let mut lost = Vec::new();
        for victim in 0..width {
            let testable = degradable && !quarantine.is_quarantined(victim);
            for fault in IntegrityFault::ALL {
                if testable {
                    covered.push((victim, fault));
                } else {
                    lost.push((victim, fault));
                }
            }
        }
        CoverageReport { width, quarantined: quarantine.quarantined_wires(), covered, lost }
    }

    /// MA faults a healthy session would test: `6·width`.
    #[must_use]
    pub fn total(&self) -> usize {
        IntegrityFault::ALL.len() * self.width
    }

    /// Faults still testable.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.covered.len()
    }

    /// Faults lost to the quarantine.
    #[must_use]
    pub fn lost_count(&self) -> usize {
        self.lost.len()
    }

    /// Covered fraction of the full fault list, in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.covered_count() as f64 / self.total() as f64
    }

    /// Whether the report meets a `min_coverage` floor (fraction).
    #[must_use]
    pub fn meets(&self, min_coverage: f64) -> bool {
        self.coverage() >= min_coverage
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage {}/{} MA faults ({} wires quarantined)",
            self.covered_count(),
            self.total(),
            self.quarantined.len()
        )
    }
}

impl ToJson for CoverageReport {
    fn to_json(&self) -> Json {
        let fault_list = |faults: &[(usize, IntegrityFault)]| {
            Json::Array(
                faults
                    .iter()
                    .map(|(victim, fault)| {
                        Json::obj([
                            ("victim", victim.to_json()),
                            ("fault", fault.to_string().to_json()),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("width", self.width.to_json()),
            ("total_faults", self.total().to_json()),
            ("covered", self.covered_count().to_json()),
            ("lost", self.lost_count().to_json()),
            ("quarantined", self.quarantined.to_json()),
            ("lost_faults", fault_list(&self.lost)),
        ])
    }
}

/// Campaign-level coverage ledger: one bit per `(victim, fault)` pair,
/// set once that pair has been *detected* by any trial of the campaign.
///
/// The adaptive engine consults the ledger before exciting a pattern:
/// a pair already detected need not be re-excited in later severity or
/// corner sweeps, so whole schedule suffixes can be dropped. Recording
/// is monotone (bits are only ever set), which is what makes the
/// adaptive campaign's detected-pair union provably equal to the
/// exhaustive sweep's: every dropped pattern's pair is already in the
/// union by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageLedger {
    /// One 6-bit fault mask per wire, bit order = [`IntegrityFault::ALL`].
    masks: Vec<u8>,
}

impl CoverageLedger {
    /// An empty ledger for a `wires`-wide bus.
    #[must_use]
    pub fn new(wires: usize) -> CoverageLedger {
        CoverageLedger { masks: vec![0; wires] }
    }

    /// Position of `fault` in [`IntegrityFault::ALL`].
    #[must_use]
    pub fn fault_index(fault: IntegrityFault) -> usize {
        IntegrityFault::ALL
            .iter()
            .position(|&f| f == fault)
            .expect("ALL enumerates every fault")
    }

    fn bit(fault: IntegrityFault) -> u8 {
        1 << Self::fault_index(fault)
    }

    /// Bus width the ledger tracks.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.masks.len()
    }

    /// Marks `(victim, fault)` detected; returns `true` when the pair
    /// was not previously covered.
    ///
    /// # Panics
    ///
    /// Panics if `victim` is out of range.
    pub fn record(&mut self, victim: usize, fault: IntegrityFault) -> bool {
        let bit = Self::bit(fault);
        let fresh = self.masks[victim] & bit == 0;
        self.masks[victim] |= bit;
        fresh
    }

    /// Whether `(victim, fault)` has been detected. Out-of-range victims
    /// read as uncovered.
    #[must_use]
    pub fn is_covered(&self, victim: usize, fault: IntegrityFault) -> bool {
        self.masks.get(victim).is_some_and(|m| m & Self::bit(fault) != 0)
    }

    /// Number of covered pairs.
    #[must_use]
    pub fn covered_count(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// All covered pairs, victim-major then [`IntegrityFault::ALL`]
    /// order — a canonical rendering independent of detection order.
    #[must_use]
    pub fn pairs(&self) -> Vec<(usize, IntegrityFault)> {
        let mut out = Vec::with_capacity(self.covered_count());
        for (victim, mask) in self.masks.iter().enumerate() {
            for fault in IntegrityFault::ALL {
                if mask & Self::bit(fault) != 0 {
                    out.push((victim, fault));
                }
            }
        }
        out
    }

    /// Unions `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the ledgers track different widths.
    pub fn merge(&mut self, other: &CoverageLedger) {
        assert_eq!(self.wires(), other.wires(), "ledger width mismatch");
        for (mine, theirs) in self.masks.iter_mut().zip(&other.masks) {
            *mine |= theirs;
        }
    }

    /// The last `(victim position, pattern index)` of a PGBSC half whose
    /// pair is still uncovered, given the half's victim order and its
    /// three covered faults. `None` means every pair in the half is
    /// covered and the whole half can be dropped. Positions before the
    /// returned one must still run in full (the on-chip generator only
    /// advances forward), which is why only a *suffix* is droppable.
    #[must_use]
    pub fn last_uncovered(
        &self,
        victims: &[usize],
        faults: &[IntegrityFault; 3],
    ) -> Option<(usize, usize)> {
        for pos in (0..victims.len()).rev() {
            for (p, &fault) in faults.iter().enumerate().rev() {
                if !self.is_covered(victims[pos], fault) {
                    return Some((pos, p));
                }
            }
        }
        None
    }

    /// Parses a ledger rendered by [`ToJson`]. `None` on malformed
    /// input (missing keys, non-integer masks, bits beyond the six
    /// fault classes).
    #[must_use]
    pub fn from_json(json: &Json) -> Option<CoverageLedger> {
        let wires = json.get("wires")?.as_u64()? as usize;
        let masks: Vec<u8> = json
            .get("masks")?
            .as_array()?
            .iter()
            .map(|m| {
                let v = m.as_u64()?;
                if v < 64 { Some(v as u8) } else { None }
            })
            .collect::<Option<_>>()?;
        if masks.len() != wires {
            return None;
        }
        Some(CoverageLedger { masks })
    }
}

impl ToJson for CoverageLedger {
    fn to_json(&self) -> Json {
        Json::obj([
            ("wires", self.wires().to_json()),
            ("masks", Json::Array(self.masks.iter().map(|&m| u64::from(m).to_json()).collect())),
        ])
    }
}

/// Number of scanned initial values the PGBSC campaign needs: always 2,
/// independent of width — the paper's headline reduction.
#[must_use]
pub fn pgbsc_scanned_value_count() -> usize {
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_pair_matches_fig3_for_pg() {
        // Fig 3: 5 wires, victim = wire 2, Pg = victim quiet low,
        // aggressors rising: 00000 → 11011.
        let p = fault_pair(5, 2, IntegrityFault::Pg).unwrap();
        assert_eq!(p.to_string(), "00000 -> 11011");
    }

    #[test]
    fn fault_pair_matches_fig3_for_all_faults() {
        let cases = [
            (IntegrityFault::Pg, "00000 -> 11011"),
            (IntegrityFault::PgBar, "00100 -> 11111"),
            (IntegrityFault::Ng, "11111 -> 00100"),
            (IntegrityFault::NgBar, "11011 -> 00000"),
            (IntegrityFault::Rs, "11011 -> 00100"),
            (IntegrityFault::Fs, "00100 -> 11011"),
        ];
        for (fault, expect) in cases {
            let p = fault_pair(5, 2, fault).unwrap();
            assert_eq!(p.to_string(), expect, "{fault}");
        }
    }

    #[test]
    fn glitch_vs_skew_partition() {
        let glitches: Vec<_> = IntegrityFault::ALL.iter().filter(|f| f.is_glitch()).collect();
        let skews: Vec<_> = IntegrityFault::ALL.iter().filter(|f| f.is_skew()).collect();
        assert_eq!(glitches.len(), 4);
        assert_eq!(skews.len(), 2);
    }

    #[test]
    fn classify_round_trips_every_fault() {
        for width in [2, 3, 5, 8] {
            for victim in 0..width {
                for fault in IntegrityFault::ALL {
                    let pair = fault_pair(width, victim, fault).unwrap();
                    assert_eq!(classify_pair(&pair, victim), Some(fault), "w{width} v{victim}");
                }
            }
        }
    }

    #[test]
    fn classify_rejects_non_ma_pairs() {
        // Aggressors hold → not an MA pattern.
        let p = VectorPair::from_strs("000", "010").unwrap();
        assert_eq!(classify_pair(&p, 1), None);
        // Aggressors disagree.
        let p = VectorPair::from_strs("001", "110").unwrap();
        assert_eq!(classify_pair(&p, 1), None);
        // Bad victim index.
        let p = VectorPair::from_strs("00", "11").unwrap();
        assert_eq!(classify_pair(&p, 5), None);
    }

    #[test]
    fn conventional_schedule_covers_all_victim_fault_combinations() {
        let sched = conventional_schedule(4).unwrap();
        assert_eq!(sched.len(), 24);
        assert_eq!(conventional_vector_count(4), 48, "two vectors per pair");
        for victim in 0..4 {
            for fault in IntegrityFault::ALL {
                assert!(
                    sched.iter().any(|s| s.victim == victim && s.fault == fault),
                    "missing {fault} on victim {victim}"
                );
            }
        }
    }

    #[test]
    fn pgbsc_vector_frequency_relation() {
        // Aggressors toggle every update, victim every second update.
        let v = |k| pgbsc_vector(3, 1, DriveLevel::Low, k);
        assert_eq!(v(0), vec![DriveLevel::Low, DriveLevel::Low, DriveLevel::Low]);
        assert_eq!(v(1), vec![DriveLevel::High, DriveLevel::Low, DriveLevel::High]);
        assert_eq!(v(2), vec![DriveLevel::Low, DriveLevel::High, DriveLevel::Low]);
        assert_eq!(v(3), vec![DriveLevel::High, DriveLevel::High, DriveLevel::High]);
        assert_eq!(v(4), vec![DriveLevel::Low, DriveLevel::Low, DriveLevel::Low]);
    }

    #[test]
    fn pgbsc_sequence_from_zero_covers_pg_rs_pgbar() {
        let seq = pgbsc_sequence(5, 2, DriveLevel::Low).unwrap();
        let faults: Vec<_> = seq.iter().map(|s| s.fault).collect();
        assert_eq!(faults, vec![IntegrityFault::Pg, IntegrityFault::Rs, IntegrityFault::PgBar]);
        assert_eq!(
            faults,
            IntegrityFault::covered_by_initial(DriveLevel::Low).to_vec()
        );
    }

    #[test]
    fn pgbsc_sequence_from_one_covers_ng_fs_ngbar() {
        let seq = pgbsc_sequence(5, 2, DriveLevel::High).unwrap();
        let faults: Vec<_> = seq.iter().map(|s| s.fault).collect();
        assert_eq!(faults, vec![IntegrityFault::Ng, IntegrityFault::Fs, IntegrityFault::NgBar]);
    }

    #[test]
    fn two_initial_values_cover_all_six_faults() {
        // The paper's §3.1 claim: 8 patterns (2 × 4 vectors) suffice.
        let mut covered = std::collections::BTreeSet::new();
        for initial in [DriveLevel::Low, DriveLevel::High] {
            for s in pgbsc_sequence(5, 2, initial).unwrap() {
                covered.insert(s.fault);
            }
        }
        assert_eq!(covered.len(), 6);
        assert_eq!(pgbsc_scanned_value_count(), 2);
    }

    #[test]
    fn one_initial_value_cannot_cover_all_six() {
        // §3.1: a single initial value only reaches three fault classes
        // because the victim transition frequency must stay at half the
        // aggressor frequency.
        let mut covered = std::collections::BTreeSet::new();
        // Even continuing for many updates, the same 3-fault cycle recurs.
        for k in 0..12 {
            let before = pgbsc_vector(5, 2, DriveLevel::Low, k);
            let after = pgbsc_vector(5, 2, DriveLevel::Low, k + 1);
            if let Some(f) = classify_pair(&VectorPair::new(before, after), 2) {
                covered.insert(f);
            }
        }
        assert!(covered.len() < 6, "covered {covered:?}");
    }

    #[test]
    fn victim_select_is_one_hot_table2() {
        let v = victim_select(5, 0).unwrap();
        assert_eq!(v.count_ones(), 1);
        assert_eq!(v.get(0), Some(sint_logic::Logic::One));
        assert!(victim_select(5, 5).is_err());
    }

    #[test]
    fn input_validation() {
        assert!(fault_pair(1, 0, IntegrityFault::Pg).is_err());
        assert!(fault_pair(4, 4, IntegrityFault::Pg).is_err());
        assert!(pgbsc_sequence(1, 0, DriveLevel::Low).is_err());
        assert!(pgbsc_sequence(4, 9, DriveLevel::Low).is_err());
        assert!(conventional_schedule(5).is_ok());
    }

    #[test]
    fn display_names() {
        assert_eq!(IntegrityFault::Pg.to_string(), "Pg");
        assert_eq!(IntegrityFault::NgBar.to_string(), "N̄g");
    }

    /// `pair` with every quarantined wire held at [`QUARANTINE_PARK`]
    /// in both vectors — how the SoC drives a degraded bus.
    fn parked(pair: &VectorPair, q: &QuarantineSet) -> VectorPair {
        let park = |level: fn(&VectorPair, usize) -> DriveLevel| -> Vec<DriveLevel> {
            (0..pair.width())
                .map(|w| if q.is_quarantined(w) { QUARANTINE_PARK } else { level(pair, w) })
                .collect()
        };
        VectorPair::new(park(VectorPair::before), park(VectorPair::after))
    }

    #[test]
    fn degraded_pair_parks_quarantined_wires() {
        let q = QuarantineSet::from_quarantined(5, [4]);
        let p = parked(&fault_pair(5, 2, IntegrityFault::Pg).unwrap(), &q);
        // Fig 3 Pg with wire 4 parked low: 00000 -> 11010.
        assert_eq!(p.to_string(), "00000 -> 11010");
        assert_eq!(classify_pair_masked(&p, 2, &q), Some(IntegrityFault::Pg));
        // The unmasked classifier rejects it (wire 4 does not switch).
        assert_eq!(classify_pair(&p, 2), None);
        // Parked at either level, a held wire is ignored.
        let high = VectorPair::from_strs("00001", "11011").unwrap();
        assert_eq!(classify_pair_masked(&high, 2, &q), Some(IntegrityFault::Pg));
    }

    #[test]
    fn degraded_schedule_covers_exactly_the_healthy_victims() {
        let q = QuarantineSet::from_quarantined(4, [1]);
        for victim in 0..4 {
            for fault in IntegrityFault::ALL {
                let p = parked(&fault_pair(4, victim, fault).unwrap(), &q);
                assert!(!p.switches(1), "parked wire toggled in {p}");
                // A quarantined wire never takes the victim role.
                let want = (victim != 1).then_some(fault);
                assert_eq!(classify_pair_masked(&p, victim, &q), want, "v{victim} {fault}");
            }
        }
    }

    #[test]
    fn parked_pgbsc_transitions_keep_the_healthy_fault_order() {
        let q = QuarantineSet::from_quarantined(5, [0]);
        for initial in [DriveLevel::Low, DriveLevel::High] {
            for s in pgbsc_sequence(5, 2, initial).unwrap() {
                // Parked, each transition keeps its healthy fault…
                let p = parked(&s.pair, &q);
                assert_eq!(classify_pair_masked(&p, 2, &q), Some(s.fault));
                // …but a quarantined wire left switching is refused.
                assert!(s.pair.switches(0));
                assert_eq!(classify_pair_masked(&s.pair, 2, &q), None);
            }
        }
    }

    #[test]
    fn degraded_with_clear_quarantine_reduces_to_healthy_plan() {
        let q = QuarantineSet::none(4);
        for s in conventional_schedule(4).unwrap() {
            assert_eq!(classify_pair_masked(&s.pair, s.victim, &q), Some(s.fault));
        }
        for initial in [DriveLevel::Low, DriveLevel::High] {
            for s in pgbsc_sequence(4, 1, initial).unwrap() {
                assert_eq!(classify_pair_masked(&s.pair, 1, &q), classify_pair(&s.pair, 1));
            }
        }
    }

    #[test]
    fn degraded_needs_two_healthy_wires() {
        // One survivor has no aggressor left to couple from.
        let q = QuarantineSet::from_quarantined(3, [0, 1]);
        let p = parked(&fault_pair(3, 2, IntegrityFault::Pg).unwrap(), &q);
        assert_eq!(classify_pair_masked(&p, 2, &q), None);
        // A quarantine over a different width classifies nothing.
        let p = fault_pair(3, 2, IntegrityFault::Pg).unwrap();
        assert_eq!(classify_pair_masked(&p, 2, &QuarantineSet::none(5)), None);
    }

    #[test]
    fn coverage_report_counts_six_per_healthy_wire() {
        let q = QuarantineSet::from_quarantined(8, [7]);
        let report = CoverageReport::for_quarantine(8, &q);
        assert_eq!(report.total(), 48);
        assert_eq!(report.covered_count(), 42);
        assert_eq!(report.lost_count(), 6);
        assert!(report.lost.iter().all(|&(v, _)| v == 7));
        assert!(report.meets(0.8));
        assert!(!report.meets(0.9));
        assert_eq!(report.to_string(), "coverage 42/48 MA faults (1 wires quarantined)");

        let clear = CoverageReport::for_quarantine(8, &QuarantineSet::none(8));
        assert_eq!(clear.covered_count(), 48);
        assert!(clear.meets(1.0));

        // Fewer than two healthy wires → nothing testable.
        let gone = CoverageReport::for_quarantine(3, &QuarantineSet::from_quarantined(3, [0, 1]));
        assert_eq!(gone.covered_count(), 0);
        assert_eq!(gone.lost_count(), 18);

        // Every quarantine mask on widths 3..=8: six faults per healthy
        // wire once two survive, none otherwise.
        for width in 3..=8usize {
            for mask in 0u32..(1 << width) {
                let q = QuarantineSet::from_quarantined(
                    width,
                    (0..width).filter(|&w| mask >> w & 1 == 1),
                );
                let report = CoverageReport::for_quarantine(width, &q);
                let healthy = q.healthy_count();
                let want = if healthy >= 2 { 6 * healthy } else { 0 };
                assert_eq!(report.total(), 6 * width, "width {width} mask {mask:#b}");
                assert_eq!(report.covered_count(), want, "width {width} mask {mask:#b}");
                assert_eq!(report.lost_count(), 6 * width - want, "width {width} mask {mask:#b}");
            }
        }
    }

    #[test]
    fn coverage_report_serialises() {
        let q = QuarantineSet::from_quarantined(3, [2]);
        let j = CoverageReport::for_quarantine(3, &q).to_json().render();
        assert!(j.contains(r#""total_faults":18"#), "{j}");
        assert!(j.contains(r#""covered":12"#), "{j}");
        assert!(j.contains(r#""quarantined":[2]"#), "{j}");
        assert!(j.contains(r#""victim":2"#), "{j}");
    }

    #[test]
    fn flattened_schedules_match_per_pair_construction() {
        // The template-based builder must emit exactly what building
        // each pair individually yields, entry for entry.
        for width in [2usize, 3, 5, 8] {
            let sched = conventional_schedule(width).unwrap();
            assert_eq!(sched.len(), IntegrityFault::ALL.len() * width);
            let mut it = sched.iter();
            for victim in 0..width {
                for fault in IntegrityFault::ALL {
                    let got = it.next().unwrap();
                    assert_eq!(got.victim, victim);
                    assert_eq!(got.fault, fault);
                    assert_eq!(got.pair, fault_pair(width, victim, fault).unwrap());
                }
            }
        }
    }

    #[test]
    fn ledger_records_monotonically() {
        let mut ledger = CoverageLedger::new(4);
        assert_eq!(ledger.covered_count(), 0);
        assert!(!ledger.is_covered(2, IntegrityFault::Rs));
        assert!(ledger.record(2, IntegrityFault::Rs));
        assert!(!ledger.record(2, IntegrityFault::Rs), "second record is stale");
        assert!(ledger.is_covered(2, IntegrityFault::Rs));
        assert!(ledger.record(0, IntegrityFault::Pg));
        assert_eq!(ledger.covered_count(), 2);
        assert_eq!(
            ledger.pairs(),
            vec![(0, IntegrityFault::Pg), (2, IntegrityFault::Rs)]
        );
        assert!(!ledger.is_covered(9, IntegrityFault::Pg), "out of range reads uncovered");
    }

    #[test]
    fn ledger_merge_unions() {
        let mut a = CoverageLedger::new(3);
        a.record(0, IntegrityFault::Pg);
        let mut b = CoverageLedger::new(3);
        b.record(0, IntegrityFault::Pg);
        b.record(2, IntegrityFault::Fs);
        a.merge(&b);
        assert_eq!(a.pairs(), vec![(0, IntegrityFault::Pg), (2, IntegrityFault::Fs)]);
    }

    #[test]
    fn ledger_last_uncovered_truncates_suffix_only() {
        let faults = IntegrityFault::covered_by_initial(DriveLevel::Low);
        let victims = [0usize, 1, 2];
        let mut ledger = CoverageLedger::new(3);
        // Nothing covered: the stop is the very last pattern.
        assert_eq!(ledger.last_uncovered(&victims, &faults), Some((2, 2)));
        // Covering the tail pulls the stop forward…
        ledger.record(2, faults[2]);
        assert_eq!(ledger.last_uncovered(&victims, &faults), Some((2, 1)));
        ledger.record(2, faults[1]);
        ledger.record(2, faults[0]);
        assert_eq!(ledger.last_uncovered(&victims, &faults), Some((1, 2)));
        // …but an interior hole keeps everything after it running.
        ledger.record(1, faults[0]);
        assert_eq!(ledger.last_uncovered(&victims, &faults), Some((1, 2)));
        for f in faults {
            ledger.record(0, f);
            ledger.record(1, f);
        }
        assert_eq!(ledger.last_uncovered(&victims, &faults), None, "whole half droppable");
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut ledger = CoverageLedger::new(5);
        ledger.record(1, IntegrityFault::NgBar);
        ledger.record(4, IntegrityFault::Pg);
        ledger.record(4, IntegrityFault::Fs);
        let rendered = ledger.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(CoverageLedger::from_json(&parsed), Some(ledger));
        assert!(CoverageLedger::from_json(&Json::parse("{}").unwrap()).is_none());
        assert!(
            CoverageLedger::from_json(&Json::parse(r#"{"wires":2,"masks":[64,0]}"#).unwrap())
                .is_none(),
            "mask bits beyond the six fault classes rejected"
        );
        assert!(
            CoverageLedger::from_json(&Json::parse(r#"{"wires":3,"masks":[0]}"#).unwrap())
                .is_none(),
            "length mismatch rejected"
        );
    }
}
