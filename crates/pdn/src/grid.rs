//! Distributed 2-D PDN grid and full-chip droop maps.
//!
//! The lumped single-π model ([`crate::PdnParams`]) captures the package
//! resonance but not the *spatial* story the Soft-FET targets: hundreds of
//! power-gate/Soft-FET sites switching across a die, each disturbing its
//! neighbourhood through the on-die mesh. [`PdnGrid`] builds that
//! substrate — an `nx × ny` resistive rail mesh fed through the package
//! R/L, a decap (ESR + C) per tile, and `sites` staggered switching sites
//! modelled as ramped current loads — and [`PdnGrid::droop_map`] reduces
//! the transient to a per-tile minimum-voltage map ([`DroopMap`]).
//!
//! The map records no waveform. It runs the transient through
//! [`transient_probe`], which passes the tile rail voltages of each
//! accepted point to a fold that keeps each tile's running minimum, so a
//! map holds one value per tile however long it runs.
//!
//! # Scale and solver choice
//!
//! A grid tile contributes two unknowns (rail node + decap internal
//! node), so even a 6×6 grid is past the dense LU's range, and chip-scale
//! grids reach 10⁴–10⁵ MNA unknowns, where the sparse direct
//! factorisation's fill-in dominates runtime. Under the default size
//! dispatch ([`SimOptions::effective_solver`]), grids from 64 unknowns run
//! on the reusable sparse LU. The grid is linear, so its matrix changes
//! only with the step size and the integration method: a step that
//! repeats both skips assembling the matrix and solves with the held
//! factors, stamping only the right-hand side. Grids beyond the GMRES
//! threshold route to GMRES+ILU(0) automatically, where such a step
//! holds the assembled matrix and its ILU(0) instead, with mid-size grids
//! (where LU is still feasible) gating its accuracy — see
//! `bench_pdn_grid` and `docs/SOLVERS.md`.
//!
//! The sparse LU factors in the circuit's own unknown order, so
//! [`PdnGrid::build`] numbers the unknowns for low fill: each tile's decap
//! node (a leaf) before its rail node, tiles in row-major order, and the
//! package nodes after every tile. On the 12×12 chip grid the factor
//! holds 3 919 entries; numbering the package first fills it to 7 245.
//! No solver reorders, so every backend solves the same system and dense
//! and sparse maps are equal bit for bit.
//!
//! # Site placement and staggering
//!
//! Sites are placed by the R2 low-discrepancy sequence (a 2-D
//! golden-ratio generalisation): deterministic, RNG-free, and spatially
//! well-spread at any count. Site `k` starts switching at
//! `site_start + k·site_stagger` — the stagger is the grid-level
//! abstraction of the Soft-FET's staircase gate drive, which spreads
//! simultaneous turn-on events in time. [`PdnGrid::with_soft_fet_spread`]
//! additionally stretches each site's current ramp, modelling the
//! per-gate di/dt reduction of the staircase edge.

use crate::model::PdnParams;
use crate::{PdnError, Result};
use sfet_circuit::{Circuit, SourceWaveform};
use sfet_sim::{transient_probe, SimOptions, TranStats};

/// Distributed PDN-grid scenario description.
///
/// # Example
///
/// ```
/// let grid = sfet_pdn::PdnGrid::default();
/// assert_eq!(grid.tiles(), 8 * 8);
/// assert!(grid.unknown_estimate() > 2 * grid.tiles());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PdnGrid {
    /// Tiles along x.
    pub nx: usize,
    /// Tiles along y.
    pub ny: usize,
    /// Package-level PDN (VRM, R/L loop, bulk decap) feeding the mesh.
    pub pdn: PdnParams,
    /// Mesh-link resistance between adjacent tiles \[Ω\].
    pub r_mesh: f64,
    /// Total on-die tile decap, distributed evenly over the tiles \[F\].
    pub c_tile_total: f64,
    /// Per-tile decap effective series resistance \[Ω\] (each tile's ESR;
    /// the parallel combination across tiles is what the rail sees).
    pub r_tile_esr: f64,
    /// Number of switching (gate/Soft-FET) sites.
    pub sites: usize,
    /// Per-site load-current amplitude \[A\].
    pub i_site: f64,
    /// First site's switch-on time \[s\].
    pub site_start: f64,
    /// Per-site current ramp duration \[s\] (the gate edge).
    pub site_ramp: f64,
    /// Turn-on stagger between consecutive sites \[s\] (the Soft-FET
    /// staircase spreading; `0` makes every site switch simultaneously).
    pub site_stagger: f64,
    /// Simulation stop time \[s\].
    pub t_stop: f64,
}

impl Default for PdnGrid {
    fn default() -> Self {
        PdnGrid {
            nx: 8,
            ny: 8,
            pdn: PdnParams::default(),
            r_mesh: 2e-3,
            c_tile_total: 10e-9,
            r_tile_esr: 50e-3,
            sites: 6,
            i_site: 0.2,
            site_start: 2e-9,
            site_ramp: 0.5e-9,
            site_stagger: 0.0,
            t_stop: 40e-9,
        }
    }
}

impl PdnGrid {
    /// A grid scaled to `nx × ny` tiles with the default per-area
    /// parameters: total decap and site count grow with tile count so
    /// larger grids describe larger dies, not denser ones.
    pub fn chip(nx: usize, ny: usize) -> Self {
        let tiles = nx.saturating_mul(ny).max(1);
        let base = PdnGrid::default();
        let sites = (tiles / 10).clamp(4, 512);
        let site_stagger = 0.2e-9;
        // The staggered switching window grows with the site count; the
        // simulated interval must cover the last ramp (plus settle
        // margin) or `validate` rightly rejects the scenario.
        let window = base.site_start + (sites - 1) as f64 * site_stagger + base.site_ramp;
        PdnGrid {
            nx,
            ny,
            c_tile_total: 10e-9 * tiles as f64 / 64.0,
            sites,
            site_stagger,
            t_stop: base.t_stop.max(window + 10e-9),
            ..base
        }
    }

    /// The Soft-FET variant: every site's current ramp stretched by
    /// `spread` (> 1), the grid-level model of the staircase gate edge.
    pub fn with_soft_fet_spread(&self, spread: f64) -> Self {
        PdnGrid {
            site_ramp: self.site_ramp * spread,
            ..self.clone()
        }
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.nx * self.ny
    }

    /// Estimated MNA unknown count: two nodes per tile (rail + decap
    /// internal), the package nodes, and the source/inductor branch
    /// currents. Used for solver-dispatch sizing and bench reporting.
    pub fn unknown_estimate(&self) -> usize {
        2 * self.tiles() + 4 + 2
    }

    /// The rail-node name of tile `(ix, iy)`.
    pub fn tile_node_name(ix: usize, iy: usize) -> String {
        format!("t{ix}_{iy}")
    }

    /// Deterministic switching-site tiles: the R2 low-discrepancy
    /// sequence over the grid, with collisions resolved by linear
    /// probing. Always returns exactly `self.sites` distinct tiles
    /// (validation caps `sites` at the tile count).
    pub fn site_tiles(&self) -> Vec<(usize, usize)> {
        // 2-D golden-ratio (R2) increments: 1/φ₂ and 1/φ₂² for the
        // plastic number φ₂ ≈ 1.3247.
        const A1: f64 = 0.754_877_666_246_692_7;
        const A2: f64 = 0.569_840_290_998_053_2;
        let mut taken = vec![false; self.tiles()];
        let mut out = Vec::with_capacity(self.sites);
        for k in 0..self.sites {
            let fx = (0.5 + A1 * (k + 1) as f64).fract();
            let fy = (0.5 + A2 * (k + 1) as f64).fract();
            let ix = ((fx * self.nx as f64) as usize).min(self.nx - 1);
            let iy = ((fy * self.ny as f64) as usize).min(self.ny - 1);
            let mut lin = iy * self.nx + ix;
            while taken[lin] {
                lin = (lin + 1) % self.tiles();
            }
            taken[lin] = true;
            out.push((lin % self.nx, lin / self.nx));
        }
        out
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidScenario`] naming the violated constraint.
    pub fn validate(&self) -> Result<()> {
        self.pdn.validate()?;
        if self.nx < 2 || self.ny < 2 {
            return Err(PdnError::InvalidScenario(format!(
                "grid must be at least 2×2, got {}×{}",
                self.nx, self.ny
            )));
        }
        if self.sites == 0 || self.sites > self.tiles() {
            return Err(PdnError::InvalidScenario(format!(
                "sites must be in 1..={}, got {}",
                self.tiles(),
                self.sites
            )));
        }
        for (name, v) in [
            ("r_mesh", self.r_mesh),
            ("c_tile_total", self.c_tile_total),
            ("r_tile_esr", self.r_tile_esr),
            ("i_site", self.i_site),
            ("site_ramp", self.site_ramp),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(PdnError::InvalidScenario(format!(
                    "{name} must be positive and finite, got {v:e}"
                )));
            }
        }
        if !(self.site_stagger >= 0.0 && self.site_stagger.is_finite()) {
            return Err(PdnError::InvalidScenario(format!(
                "site_stagger must be non-negative, got {:e}",
                self.site_stagger
            )));
        }
        let last_on =
            self.site_start + (self.sites - 1) as f64 * self.site_stagger + self.site_ramp;
        if self.t_stop <= last_on {
            return Err(PdnError::InvalidScenario(format!(
                "t_stop {:e} must extend beyond the last site ramp (ends {last_on:e})",
                self.t_stop
            )));
        }
        Ok(())
    }

    /// Builds the grid circuit: package → center-tile entry, `r_mesh`
    /// links between 4-neighbours, per-tile ESR + C decap (initialised to
    /// `v_nom`), and the staggered site loads.
    ///
    /// Nodes are created before any element, in an order that keeps LU
    /// fill low: tile by tile in row-major order, the decap node
    /// `d{ix}_{iy}` and then the rail node `t{ix}_{iy}`, and the four
    /// package nodes last. A decap node is a leaf (its ESR and its
    /// capacitor to ground), so eliminating it before its rail node adds
    /// no fill; the package, which ties the centre tile to the last
    /// unknowns (its branch currents), is eliminated after the tiles.
    /// Elements follow the nodes, and their order alone fixes the device
    /// stamp order and the branch numbering.
    ///
    /// # Errors
    ///
    /// Propagates validation and circuit-construction failures.
    pub fn build(&self) -> Result<Circuit> {
        self.validate()?;
        let mut ckt = Circuit::new();
        let gnd = Circuit::ground();
        // Create the nodes in low-fill order; the loops below look them up.
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                ckt.node(&format!("d{ix}_{iy}"));
                ckt.node(&Self::tile_node_name(ix, iy));
            }
        }
        let entry = self.pdn.attach(&mut ckt, "pkg")?;

        let c_tile = self.c_tile_total / self.tiles() as f64;
        let mut tile_nodes = Vec::with_capacity(self.tiles());
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let rail = ckt.node(&Self::tile_node_name(ix, iy));
                let dcp = ckt.node(&format!("d{ix}_{iy}"));
                ckt.add_resistor(&format!("Rd{ix}_{iy}"), rail, dcp, self.r_tile_esr)?;
                ckt.add_capacitor_ic(&format!("Cd{ix}_{iy}"), dcp, gnd, c_tile, self.pdn.v_nom)?;
                tile_nodes.push(rail);
            }
        }
        // Mesh links to the right and upward 4-neighbours.
        for iy in 0..self.ny {
            for ix in 0..self.nx {
                let here = tile_nodes[iy * self.nx + ix];
                if ix + 1 < self.nx {
                    let right = tile_nodes[iy * self.nx + ix + 1];
                    ckt.add_resistor(&format!("Rh{ix}_{iy}"), here, right, self.r_mesh)?;
                }
                if iy + 1 < self.ny {
                    let up = tile_nodes[(iy + 1) * self.nx + ix];
                    ckt.add_resistor(&format!("Rv{ix}_{iy}"), here, up, self.r_mesh)?;
                }
            }
        }
        // Package entry at the center tile.
        let center = tile_nodes[(self.ny / 2) * self.nx + self.nx / 2];
        ckt.add_resistor("Rentry", entry, center, self.r_mesh)?;

        // Staggered site loads.
        for (k, (ix, iy)) in self.site_tiles().into_iter().enumerate() {
            let start = self.site_start + k as f64 * self.site_stagger;
            ckt.add_current_source(
                &format!("Isite{k}"),
                tile_nodes[iy * self.nx + ix],
                gnd,
                SourceWaveform::ramp(0.0, self.i_site, start, self.site_ramp),
            )?;
        }
        Ok(ckt)
    }

    /// Runs the transient and reduces it to a per-tile minimum-voltage
    /// map as it steps, with default options sized for `t_stop`.
    ///
    /// # Errors
    ///
    /// Propagates build and simulation failures;
    /// [`PdnError::NonFiniteMetric`] naming the first tile, in row-major
    /// order, with a NaN/Inf voltage sample, and that tile's first such
    /// sample.
    pub fn droop_map(&self) -> Result<DroopMap> {
        self.droop_map_with(&SimOptions::for_duration(self.t_stop, 400))
    }

    /// [`PdnGrid::droop_map`] under explicit simulator options — the hook
    /// for pinning a solver backend ([`SimOptions::solver`]) and attaching
    /// telemetry.
    ///
    /// The tile minima and the statistics are bit for bit what folding
    /// each tile's recorded waveform ([`sfet_sim::TranResult::node_samples`])
    /// with `f64::min` from `+∞`, in time order, gives.
    ///
    /// # Errors
    ///
    /// Propagates build and simulation failures;
    /// [`PdnError::NonFiniteMetric`] naming the first tile, in row-major
    /// order, with a NaN/Inf voltage sample, and that tile's first such
    /// sample.
    pub fn droop_map_with(&self, opts: &SimOptions) -> Result<DroopMap> {
        let ckt = self.build()?;
        let rails: Vec<String> = (0..self.ny)
            .flat_map(|iy| (0..self.nx).map(move |ix| Self::tile_node_name(ix, iy)))
            .collect();
        let mut minima = TileMinima::new(self.tiles());
        let stats = transient_probe(&ckt, self.t_stop, opts, &rails, |v| minima.fold(v))?;
        Ok(DroopMap {
            nx: self.nx,
            ny: self.ny,
            v_nom: self.pdn.v_nom,
            v_min: minima.finish(self.nx)?,
            stats,
        })
    }
}

/// Each tile's running minimum over the accepted points of a transient,
/// in time order, and each tile's first non-finite sample.
struct TileMinima {
    v_min: Vec<f64>,
    non_finite: Vec<Option<f64>>,
}

impl TileMinima {
    fn new(tiles: usize) -> Self {
        TileMinima {
            v_min: vec![f64::INFINITY; tiles],
            non_finite: vec![None; tiles],
        }
    }

    /// Folds one accepted point: every tile's voltage, row-major.
    fn fold(&mut self, rails: &[f64]) {
        let tiles = self.v_min.iter_mut().zip(&mut self.non_finite);
        for ((m, first), &v) in tiles.zip(rails) {
            if !v.is_finite() {
                first.get_or_insert(v);
            }
            *m = m.min(v);
        }
    }

    /// The tile minima, or the error naming the first tile, row-major, that
    /// saw a non-finite sample, and the first such sample it saw.
    fn finish(self, nx: usize) -> Result<Vec<f64>> {
        let mut tiles = self.non_finite.iter().enumerate();
        match tiles.find_map(|(lin, first)| first.map(|v| (lin, v))) {
            Some((lin, v)) => Err(PdnError::NonFiniteMetric(format!(
                "tile ({}, {}) voltage sample is {v}",
                lin % nx,
                lin / nx
            ))),
            None => Ok(self.v_min),
        }
    }
}

/// Per-tile minimum rail voltage over a grid transient — the full-chip
/// droop map (row-major, `[iy * nx + ix]`).
#[derive(Debug, Clone, PartialEq)]
pub struct DroopMap {
    /// Tiles along x.
    pub nx: usize,
    /// Tiles along y.
    pub ny: usize,
    /// Nominal supply \[V\].
    pub v_nom: f64,
    /// Per-tile minimum rail voltage \[V\], row-major.
    pub v_min: Vec<f64>,
    /// Transient engine statistics (includes the solver counters).
    pub stats: TranStats,
}

impl DroopMap {
    /// Minimum voltage of tile `(ix, iy)` \[V\].
    pub fn tile(&self, ix: usize, iy: usize) -> f64 {
        self.v_min[iy * self.nx + ix]
    }

    /// The worst tile: `(ix, iy, v_min)` with the lowest minimum voltage.
    /// Non-finite samples are rejected at extraction, so `total_cmp` here
    /// only orders finite values.
    pub fn worst(&self) -> (usize, usize, f64) {
        let (lin, &v) = self
            .v_min
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("a validated grid has at least 2×2 tiles");
        (lin % self.nx, lin / self.nx, v)
    }

    /// Worst droop below nominal \[V\]: `v_nom - min(v_min)`.
    pub fn worst_droop(&self) -> f64 {
        self.v_nom - self.worst().2
    }

    /// Largest relative per-tile disagreement with `other` — the
    /// iterative-vs-direct equivalence metric used by `bench_pdn_grid`
    /// and the CI solvers job.
    ///
    /// # Errors
    ///
    /// [`PdnError::InvalidScenario`] on shape mismatch.
    pub fn max_rel_diff(&self, other: &DroopMap) -> Result<f64> {
        if self.nx != other.nx || self.ny != other.ny {
            return Err(PdnError::InvalidScenario(format!(
                "droop-map shapes differ: {}×{} vs {}×{}",
                self.nx, self.ny, other.nx, other.ny
            )));
        }
        let mut worst = 0.0f64;
        for (a, b) in self.v_min.iter().zip(&other.v_min) {
            let denom = a.abs().max(b.abs()).max(1e-30);
            worst = worst.max((a - b).abs() / denom);
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfet_sim::LinearSolver;

    #[test]
    fn default_validates_and_builds() {
        let g = PdnGrid::default();
        let ckt = g.build().unwrap();
        ckt.validate().unwrap();
    }

    /// `chip` must stay self-consistent at every scale: large dies get
    /// more staggered sites, and the simulated window has to stretch to
    /// cover the last ramp (a 48×48 chip once failed validation here).
    #[test]
    fn chip_scales_stay_valid() {
        for (nx, ny) in [(8usize, 8usize), (32, 32), (48, 48), (72, 72), (100, 100)] {
            let g = PdnGrid::chip(nx, ny);
            g.validate()
                .unwrap_or_else(|e| panic!("chip({nx}, {ny}): {e}"));
            g.with_soft_fet_spread(4.0)
                .validate()
                .unwrap_or_else(|e| panic!("chip({nx}, {ny}) spread 4: {e}"));
        }
    }

    #[test]
    fn invalid_grids_rejected() {
        let g = PdnGrid {
            nx: 1,
            ..Default::default()
        };
        assert!(g.validate().is_err());
        let g = PdnGrid {
            sites: 0,
            ..Default::default()
        };
        assert!(g.validate().is_err());
        let g = PdnGrid {
            sites: 65,
            ..Default::default()
        };
        assert!(g.validate().is_err(), "more sites than tiles");
        let g = PdnGrid {
            t_stop: 1e-9,
            ..Default::default()
        };
        assert!(g.validate().is_err(), "t_stop inside the ramp window");
    }

    #[test]
    fn site_tiles_are_distinct_and_in_bounds() {
        let g = PdnGrid {
            sites: 40,
            ..PdnGrid::default()
        };
        let sites = g.site_tiles();
        assert_eq!(sites.len(), 40);
        let mut seen = std::collections::HashSet::new();
        for &(ix, iy) in &sites {
            assert!(ix < g.nx && iy < g.ny);
            assert!(seen.insert((ix, iy)), "duplicate site ({ix}, {iy})");
        }
    }

    #[test]
    fn droop_map_shows_load_locality() {
        let g = PdnGrid {
            t_stop: 10e-9,
            ..PdnGrid::default()
        };
        let map = g.droop_map().unwrap();
        assert_eq!(map.v_min.len(), 64);
        let (wx, wy, v_worst) = map.worst();
        // Every tile droops below nominal, the worst visibly so.
        assert!(v_worst < g.pdn.v_nom - 1e-3, "worst tile {v_worst}");
        assert!(map.worst_droop() > 1e-3);
        // The worst tile is one of the load sites (droop is local).
        assert!(
            g.site_tiles().contains(&(wx, wy)),
            "worst tile ({wx}, {wy}) not a site"
        );
        // A far-corner tile droops less than the worst site tile.
        assert!(map.tile(0, 0) > v_worst);
    }

    #[test]
    fn staggering_and_spreading_reduce_worst_droop() {
        let sim = PdnGrid {
            t_stop: 10e-9,
            ..PdnGrid::default()
        };
        let simultaneous = sim.droop_map().unwrap();
        let staggered = PdnGrid {
            site_stagger: 0.5e-9,
            ..sim.clone()
        }
        .droop_map()
        .unwrap();
        let spread = sim.with_soft_fet_spread(8.0).droop_map().unwrap();
        assert!(
            staggered.worst_droop() < simultaneous.worst_droop(),
            "stagger: {:.2} mV vs {:.2} mV",
            staggered.worst_droop() * 1e3,
            simultaneous.worst_droop() * 1e3
        );
        assert!(
            spread.worst_droop() < simultaneous.worst_droop(),
            "spread: {:.2} mV vs {:.2} mV",
            spread.worst_droop() * 1e3,
            simultaneous.worst_droop() * 1e3
        );
    }

    /// The acceptance gate at test scale: GMRES+ILU(0) agrees with the
    /// sparse direct LU within 1e-6 relative per tile.
    #[test]
    fn iterative_map_matches_direct() {
        let g = PdnGrid {
            nx: 10,
            ny: 10,
            t_stop: 10e-9,
            ..PdnGrid::default()
        };
        let opts = SimOptions::for_duration(g.t_stop, 300);
        let direct = g
            .droop_map_with(&opts.clone().with_solver(LinearSolver::Sparse))
            .unwrap();
        let iter = g
            .droop_map_with(&opts.with_solver(LinearSolver::Iterative))
            .unwrap();
        assert!(iter.stats.solver.gmres_iterations > 0);
        let diff = direct.max_rel_diff(&iter).unwrap();
        assert!(diff < 1e-6, "iterative vs direct per-tile diff {diff:e}");
    }

    /// No grid run produces a non-finite sample, so the fold's error is
    /// checked directly: with NaN and ±∞ samples in two tiles at different
    /// points, it names the first tile in row-major order and that tile's
    /// first non-finite sample, as the recorded reduction did.
    #[test]
    fn tile_minima_name_the_first_tile_and_its_first_non_finite_sample() {
        let (nx, ny) = (3, 2);
        let mut minima = TileMinima::new(nx * ny);
        let points = [
            [1.0, 0.9, 0.8, 0.7, 0.6, 0.5],
            [1.0, 0.9, 0.8, 0.7, f64::NAN, 0.5],
            [1.0, f64::INFINITY, 0.8, 0.7, 0.6, 0.5],
            [1.0, f64::NEG_INFINITY, 0.8, 0.7, 0.6, 0.5],
        ];
        for point in &points {
            minima.fold(point);
        }
        assert_eq!(
            minima.finish(nx),
            Err(PdnError::NonFiniteMetric(
                "tile (1, 0) voltage sample is inf".into()
            ))
        );

        let mut minima = TileMinima::new(nx * ny);
        for point in &points[..2] {
            minima.fold(point);
        }
        assert_eq!(
            minima.finish(nx),
            Err(PdnError::NonFiniteMetric(
                "tile (1, 1) voltage sample is NaN".into()
            ))
        );

        let mut minima = TileMinima::new(nx * ny);
        minima.fold(&[1.0, 0.9, 0.8, 0.7, 0.6, 0.5]);
        minima.fold(&[0.5, 1.0, 0.3, 0.7, 0.7, 0.4]);
        assert_eq!(minima.finish(nx), Ok(vec![0.5, 0.9, 0.3, 0.7, 0.6, 0.4]));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = DroopMap {
            nx: 2,
            ny: 2,
            v_nom: 1.0,
            v_min: vec![1.0; 4],
            stats: TranStats::default(),
        };
        let b = DroopMap { nx: 3, ..a.clone() };
        assert!(a.max_rel_diff(&b).is_err());
    }
}
