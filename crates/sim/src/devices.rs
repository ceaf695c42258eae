//! Compiled simulation devices and MNA stamping.
//!
//! A [`sfet_circuit::Circuit`] is compiled once into a vector of
//! [`SimDevice`]s holding per-instance simulation state (companion-model
//! histories, PTM phase state). The MNA unknown vector is laid out as
//!
//! ```text
//! x = [ v(node 1), ..., v(node N-1), i(branch 0), ..., i(branch B-1) ]
//! ```
//!
//! with ground (node 0) eliminated. Voltage sources and inductors own the
//! branch-current unknowns, in circuit order.
//!
//! Sign conventions (KCL written as "sum of currents leaving the node = 0"):
//!
//! * a conductance `g` between `p, n` stamps `+g` on the diagonals and `-g`
//!   off-diagonal;
//! * a companion/source current `i` flowing `p → n` stamps `rhs[p] -= i`,
//!   `rhs[n] += i`;
//! * a branch current is positive flowing from `p` *through the element*
//!   to `n` (SPICE convention: a supply delivering current reads negative).

use crate::matrix::MnaMatrix;
use crate::trace;
use sfet_circuit::{Circuit, Element, SourceWaveform};
use sfet_devices::mosfet::{self, GateCaps, MosfetModel};
use sfet_devices::ptm::{PtmState, TransitionEvent};
use sfet_numeric::integrate::{cap_companion, ind_companion, CapHistory, IndHistory, Method};
use sfet_telemetry::Telemetry;

/// Index of an unknown in the MNA vector; `None` means ground.
pub(crate) type Unknown = Option<usize>;

/// Reads the voltage of a (possibly ground) unknown from the solution.
#[inline]
pub(crate) fn volt(x: &[f64], u: Unknown) -> f64 {
    u.map_or(0.0, |i| x[i])
}

/// A Jacobian sink devices stamp into. [`MnaMatrix`] is the scalar
/// implementation; the transient stepper's batch adapter stamps into the
/// selected lane of a [`sfet_numeric::batch::BatchDense`]. Both receive
/// the *identical* sequence of `add` calls for a given device list and
/// iterate, which is what keeps batched solves bitwise-equal to scalar.
/// A linear lane that re-solves with held factors stamps into a sink
/// that drops every entry, so only its right-hand side is written.
pub(crate) trait Stamp {
    /// `jac[r][c] += v`.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

impl Stamp for MnaMatrix {
    // Runs once per Jacobian entry per Newton iteration. Under a plain
    // `#[inline]` the inliner's choice depends on how the crate is split
    // into codegen units, and an out-of-line call here costs the scalar
    // power-gate wake (perfbench `wake_scalar`) about 7 % of its jobs/s.
    #[inline(always)]
    fn add(&mut self, r: usize, c: usize, v: f64) {
        MnaMatrix::add(self, r, c, v);
    }
}

/// Stamps a conductance between two unknowns.
#[inline]
fn stamp_g<M: Stamp>(jac: &mut M, p: Unknown, n: Unknown, g: f64) {
    if let Some(i) = p {
        jac.add(i, i, g);
        if let Some(j) = n {
            jac.add(i, j, -g);
        }
    }
    if let Some(j) = n {
        jac.add(j, j, g);
        if let Some(i) = p {
            jac.add(j, i, -g);
        }
    }
}

/// Stamps a current `i` flowing from `p` to `n` (leaving `p`).
#[inline]
fn stamp_i(rhs: &mut [f64], p: Unknown, n: Unknown, i: f64) {
    if let Some(a) = p {
        rhs[a] -= i;
    }
    if let Some(b) = n {
        rhs[b] += i;
    }
}

/// Stamps a Jacobian entry `jac[row][col] += v` where `row` is a node
/// equation and `col` a voltage unknown; both may be ground (no-op).
#[inline]
fn stamp_j<M: Stamp>(jac: &mut M, row: Unknown, col: Unknown, v: f64) {
    if let (Some(r), Some(c)) = (row, col) {
        jac.add(r, c, v);
    }
}

/// How a stamp is being requested.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StampMode {
    /// DC operating point: capacitors open (ICs enforced by a stiff Norton
    /// equivalent), inductors shorted, sources scaled by `source_scale`
    /// (for source stepping), `gmin_shunt` added from every device node to
    /// ground (for gmin stepping).
    Dc {
        /// Scale factor on all independent sources (0..=1).
        source_scale: f64,
        /// Extra stabilising shunt conductance.
        gmin_shunt: f64,
    },
    /// Transient step ending at `t_next` with step size `dt`.
    Transient {
        /// End time of the step being solved \[s\].
        t_next: f64,
        /// Step size \[s\].
        dt: f64,
        /// Integration method for this step.
        method: Method,
    },
}

/// A compiled device with its simulation state.
#[derive(Debug, Clone)]
pub(crate) enum SimDevice {
    Resistor {
        p: Unknown,
        n: Unknown,
        g: f64,
    },
    Capacitor {
        p: Unknown,
        n: Unknown,
        c: f64,
        ic: Option<f64>,
        hist: CapHistory,
    },
    Inductor {
        p: Unknown,
        n: Unknown,
        branch: usize,
        l: f64,
        hist: IndHistory,
    },
    Vsrc {
        p: Unknown,
        n: Unknown,
        branch: usize,
        wave: SourceWaveform,
    },
    Isrc {
        p: Unknown,
        n: Unknown,
        wave: SourceWaveform,
    },
    /// VCVS (E card): `v(p,n) = gain * v(cp,cn)`; owns a branch unknown.
    Vcvs {
        p: Unknown,
        n: Unknown,
        cp: Unknown,
        cn: Unknown,
        branch: usize,
        gain: f64,
    },
    /// VCCS (G card): `i(p→n) = gm * v(cp,cn)`.
    Vccs {
        p: Unknown,
        n: Unknown,
        cp: Unknown,
        cn: Unknown,
        gm: f64,
    },
    /// CCCS (F card): `i(p→n) = gain * i(control branch)`.
    Cccs {
        p: Unknown,
        n: Unknown,
        /// Branch-unknown index of the controlling voltage source.
        cbranch: usize,
        gain: f64,
    },
    /// CCVS (H card): `v(p,n) = r * i(control branch)`; owns a branch
    /// unknown.
    Ccvs {
        p: Unknown,
        n: Unknown,
        /// Branch-unknown index of the controlling voltage source.
        cbranch: usize,
        branch: usize,
        r: f64,
    },
    /// `.ic v(node)=v` pin: a stiff Norton equivalent holds the node near
    /// `v` during the DC operating point only (mirroring the capacitor-IC
    /// treatment); it contributes nothing during transient stepping.
    NodeIc {
        node: Unknown,
        v: f64,
    },
    Mosfet {
        d: Unknown,
        g: Unknown,
        s: Unknown,
        b: Unknown,
        model: MosfetModel,
        w: f64,
        l: f64,
        caps: GateCaps,
        h_gs: CapHistory,
        h_gd: CapHistory,
        h_gb: CapHistory,
    },
    Ptm {
        p: Unknown,
        n: Unknown,
        state: PtmState,
        /// Resistance frozen for the step currently being solved.
        r_step: f64,
        events: Vec<TransitionEvent>,
    },
}

impl SimDevice {
    /// Stamps this device's linearised contribution at iterate `x`.
    pub(crate) fn stamp<M: Stamp>(
        &self,
        mode: StampMode,
        x: &[f64],
        jac: &mut M,
        rhs: &mut [f64],
        gmin: f64,
    ) {
        match self {
            SimDevice::Resistor { p, n, g } => stamp_g(jac, *p, *n, *g),
            SimDevice::Capacitor { p, n, c, ic, hist } => match mode {
                StampMode::Dc { .. } => {
                    if let Some(ic) = ic {
                        // Stiff Norton equivalent pinning v(p,n) ≈ ic.
                        let g_ic = 1e3;
                        stamp_g(jac, *p, *n, g_ic);
                        stamp_i(rhs, *p, *n, -g_ic * ic);
                    }
                    // Otherwise open in DC.
                }
                StampMode::Transient { dt, method, .. } => {
                    let co = cap_companion(method, *c, dt, hist);
                    stamp_g(jac, *p, *n, co.g_eq);
                    stamp_i(rhs, *p, *n, co.i_eq);
                }
            },
            SimDevice::Inductor {
                p,
                n,
                branch,
                l,
                hist,
            } => {
                let (r_eq, e_eq) = match mode {
                    StampMode::Dc { .. } => (0.0, 0.0),
                    StampMode::Transient { dt, method, .. } => {
                        let co = ind_companion(method, *l, dt, hist);
                        (co.r_eq, co.e_eq)
                    }
                };
                let br = Some(*branch);
                // KCL coupling: branch current leaves p, enters n.
                stamp_j(jac, *p, br, 1.0);
                stamp_j(jac, *n, br, -1.0);
                // Branch equation: v_p - v_n - r_eq * i = e_eq.
                stamp_j(jac, br, *p, 1.0);
                stamp_j(jac, br, *n, -1.0);
                jac.add(*branch, *branch, -r_eq);
                rhs[*branch] += e_eq;
            }
            SimDevice::Vsrc {
                p, n, branch, wave, ..
            } => {
                let e = match mode {
                    StampMode::Dc { source_scale, .. } => wave.initial_value() * source_scale,
                    StampMode::Transient { t_next, .. } => wave.eval(t_next),
                };
                let br = Some(*branch);
                stamp_j(jac, *p, br, 1.0);
                stamp_j(jac, *n, br, -1.0);
                stamp_j(jac, br, *p, 1.0);
                stamp_j(jac, br, *n, -1.0);
                rhs[*branch] += e;
            }
            SimDevice::Isrc { p, n, wave } => {
                let i = match mode {
                    StampMode::Dc { source_scale, .. } => wave.initial_value() * source_scale,
                    StampMode::Transient { t_next, .. } => wave.eval(t_next),
                };
                stamp_i(rhs, *p, *n, i);
            }
            SimDevice::Vcvs {
                p,
                n,
                cp,
                cn,
                branch,
                gain,
            } => {
                let br = Some(*branch);
                // KCL coupling: branch current leaves p, enters n.
                stamp_j(jac, *p, br, 1.0);
                stamp_j(jac, *n, br, -1.0);
                // Branch equation: v_p - v_n - gain * (v_cp - v_cn) = 0.
                stamp_j(jac, br, *p, 1.0);
                stamp_j(jac, br, *n, -1.0);
                stamp_j(jac, br, *cp, -gain);
                stamp_j(jac, br, *cn, *gain);
            }
            SimDevice::Vccs { p, n, cp, cn, gm } => {
                // Current gm*(v_cp - v_cn) leaves node p, enters node n.
                stamp_j(jac, *p, *cp, *gm);
                stamp_j(jac, *p, *cn, -gm);
                stamp_j(jac, *n, *cp, -gm);
                stamp_j(jac, *n, *cn, *gm);
            }
            SimDevice::Cccs {
                p,
                n,
                cbranch,
                gain,
            } => {
                // Current gain * i(cbranch) leaves node p, enters node n;
                // the controlling current is itself an unknown.
                if let Some(pi) = p {
                    jac.add(*pi, *cbranch, *gain);
                }
                if let Some(ni) = n {
                    jac.add(*ni, *cbranch, -gain);
                }
            }
            SimDevice::Ccvs {
                p,
                n,
                cbranch,
                branch,
                r,
            } => {
                let br = Some(*branch);
                stamp_j(jac, *p, br, 1.0);
                stamp_j(jac, *n, br, -1.0);
                // Branch equation: v_p - v_n - r * i(cbranch) = 0.
                stamp_j(jac, br, *p, 1.0);
                stamp_j(jac, br, *n, -1.0);
                jac.add(*branch, *cbranch, -r);
            }
            SimDevice::NodeIc { node, v } => {
                if let StampMode::Dc { .. } = mode {
                    // Stiff Norton equivalent pinning v(node) ≈ v, released
                    // for transient (same stiffness as the capacitor IC pin).
                    let g_ic = 1e3;
                    stamp_j(jac, *node, *node, g_ic);
                    stamp_i(rhs, *node, None, -g_ic * v);
                }
            }
            SimDevice::Mosfet {
                d,
                g,
                s,
                b,
                model,
                w,
                l,
                caps,
                h_gs,
                h_gd,
                h_gb,
            } => {
                let (vg, vd, vs, vb) = (volt(x, *g), volt(x, *d), volt(x, *s), volt(x, *b));
                let op = mosfet::eval(model, *w, *l, vg, vd, vs, vb);
                // Linearised drain current (into drain) written for the next
                // iterate: i_d = op.id + gm Δvg + gds Δvd + gms Δvs + gmb Δvb.
                // Row d gains the current leaving node d (= +i_d); row s the
                // opposite.
                let i0 = op.id - op.gm * vg - op.gds * vd - op.gms * vs - op.gmb * vb;
                stamp_j(jac, *d, *g, op.gm);
                stamp_j(jac, *d, *d, op.gds);
                stamp_j(jac, *d, *s, op.gms);
                stamp_j(jac, *d, *b, op.gmb);
                stamp_j(jac, *s, *g, -op.gm);
                stamp_j(jac, *s, *d, -op.gds);
                stamp_j(jac, *s, *s, -op.gms);
                stamp_j(jac, *s, *b, -op.gmb);
                stamp_i(rhs, *d, *s, i0);
                // GMIN keeps the matrix non-singular when the channel is off.
                stamp_g(jac, *d, *s, gmin);
                // Intrinsic gate capacitances (transient only).
                if let StampMode::Transient { dt, method, .. } = mode {
                    for (node, c, hist) in [
                        (*s, caps.cgs, h_gs),
                        (*d, caps.cgd, h_gd),
                        (*b, caps.cgb, h_gb),
                    ] {
                        let co = cap_companion(method, c, dt, hist);
                        stamp_g(jac, *g, node, co.g_eq);
                        stamp_i(rhs, *g, node, co.i_eq);
                    }
                }
            }
            SimDevice::Ptm {
                p,
                n,
                r_step,
                state,
                ..
            } => {
                let r = match mode {
                    StampMode::Dc { .. } => state.resistance(0.0),
                    StampMode::Transient { .. } => *r_step,
                };
                stamp_g(jac, *p, *n, 1.0 / r);
            }
        }
        // gmin stepping shunt (DC robustness): tie every device node weakly
        // to ground.
        if let StampMode::Dc { gmin_shunt, .. } = mode {
            if gmin_shunt > 0.0 {
                for i in self.touched_unknowns().into_iter().flatten() {
                    jac.add(i, i, gmin_shunt);
                }
            }
        }
    }

    /// Whether [`stamp`](SimDevice::stamp) reads the iterate `x`. A device
    /// that does not read it stamps the same values at every Newton
    /// iteration of a transient step attempt. Every variant answers
    /// explicitly, so a new one must declare itself.
    pub(crate) fn reads_iterate(&self) -> bool {
        match self {
            SimDevice::Mosfet { .. } => true,
            SimDevice::Resistor { .. }
            | SimDevice::Capacitor { .. }
            | SimDevice::Inductor { .. }
            | SimDevice::Vsrc { .. }
            | SimDevice::Isrc { .. }
            | SimDevice::Vcvs { .. }
            | SimDevice::Vccs { .. }
            | SimDevice::Cccs { .. }
            | SimDevice::Ccvs { .. }
            | SimDevice::NodeIc { .. }
            | SimDevice::Ptm { .. } => false,
        }
    }

    /// The bits of what this device's transient Jacobian entries read
    /// besides the step size and the integration method, if anything.
    /// Meaningful when no device [reads the iterate](Self::reads_iterate):
    /// two transient stamps of such a circuit with equal `dt`, method and
    /// keys stamp bit-equal Jacobians. Every variant answers explicitly, so
    /// a new one must declare itself.
    pub(crate) fn jacobian_key(&self) -> Option<u64> {
        match self {
            // The resistance frozen for the step.
            SimDevice::Ptm { r_step, .. } => Some(r_step.to_bits()),
            // Companions read only (dt, method); sources and controlled
            // sources stamp constants; a `.ic` pin stamps only in DC.
            SimDevice::Resistor { .. }
            | SimDevice::Capacitor { .. }
            | SimDevice::Inductor { .. }
            | SimDevice::Vsrc { .. }
            | SimDevice::Isrc { .. }
            | SimDevice::Vcvs { .. }
            | SimDevice::Vccs { .. }
            | SimDevice::Cccs { .. }
            | SimDevice::Ccvs { .. }
            | SimDevice::NodeIc { .. } => None,
            // Reads the iterate, so its circuit is never keyed.
            SimDevice::Mosfet { .. } => None,
        }
    }

    /// Whether this is an independent source, the only kind of device
    /// with [breakpoints](SimDevice::next_breakpoint). Every variant
    /// answers explicitly, so a new one must declare itself.
    pub(crate) fn is_source(&self) -> bool {
        match self {
            SimDevice::Vsrc { .. } | SimDevice::Isrc { .. } => true,
            SimDevice::Resistor { .. }
            | SimDevice::Capacitor { .. }
            | SimDevice::Inductor { .. }
            | SimDevice::Vcvs { .. }
            | SimDevice::Vccs { .. }
            | SimDevice::Cccs { .. }
            | SimDevice::Ccvs { .. }
            | SimDevice::NodeIc { .. }
            | SimDevice::Mosfet { .. }
            | SimDevice::Ptm { .. } => false,
        }
    }

    /// Whether a transient [`stamp`](SimDevice::stamp) writes the
    /// right-hand side. Every variant answers explicitly, so a new one must
    /// declare itself.
    pub(crate) fn stamps_transient_rhs(&self) -> bool {
        match self {
            // Companion currents, source values and the linearised drain
            // current.
            SimDevice::Capacitor { .. }
            | SimDevice::Inductor { .. }
            | SimDevice::Vsrc { .. }
            | SimDevice::Isrc { .. }
            | SimDevice::Mosfet { .. } => true,
            // Conductances and controlled sources stamp the Jacobian only;
            // a `.ic` pin stamps only in DC.
            SimDevice::Resistor { .. }
            | SimDevice::Vcvs { .. }
            | SimDevice::Vccs { .. }
            | SimDevice::Cccs { .. }
            | SimDevice::Ccvs { .. }
            | SimDevice::NodeIc { .. }
            | SimDevice::Ptm { .. } => false,
        }
    }

    /// Whether [`commit`](SimDevice::commit) changes this device. Every
    /// variant answers explicitly, so a new one must declare itself.
    pub(crate) fn commits_state(&self) -> bool {
        match self {
            // Companion histories and the PTM phase.
            SimDevice::Capacitor { .. }
            | SimDevice::Inductor { .. }
            | SimDevice::Mosfet { .. }
            | SimDevice::Ptm { .. } => true,
            SimDevice::Resistor { .. }
            | SimDevice::Vsrc { .. }
            | SimDevice::Isrc { .. }
            | SimDevice::Vcvs { .. }
            | SimDevice::Vccs { .. }
            | SimDevice::Cccs { .. }
            | SimDevice::Ccvs { .. }
            | SimDevice::NodeIc { .. } => false,
        }
    }

    /// The earliest breakpoint of this device's waveform strictly after
    /// `t`, if any.
    fn next_breakpoint(&self, t: f64) -> Option<f64> {
        match self {
            SimDevice::Vsrc { wave, .. } | SimDevice::Isrc { wave, .. } => wave.next_breakpoint(t),
            _ => None,
        }
    }

    /// How far an armed PTM's terminal voltage at iterate `x` lies past its
    /// threshold ([`PtmState::threshold_excess`]); `None` for a PTM in
    /// transition and for every other device.
    pub(crate) fn threshold_excess(&self, x: &[f64]) -> Option<f64> {
        match self {
            SimDevice::Ptm { p, n, state, .. } => state.threshold_excess(volt(x, *p) - volt(x, *n)),
            _ => None,
        }
    }

    /// Voltage-unknown indices this device touches (for gmin stepping).
    /// Returns a fixed-size array (padded with ground) so the per-stamp
    /// hot path stays allocation-free.
    fn touched_unknowns(&self) -> [Unknown; 4] {
        match self {
            SimDevice::Resistor { p, n, .. }
            | SimDevice::Capacitor { p, n, .. }
            | SimDevice::Isrc { p, n, .. }
            | SimDevice::Ptm { p, n, .. }
            | SimDevice::Inductor { p, n, .. }
            | SimDevice::Cccs { p, n, .. }
            | SimDevice::Ccvs { p, n, .. }
            | SimDevice::Vsrc { p, n, .. } => [*p, *n, None, None],
            SimDevice::Vcvs { p, n, cp, cn, .. } | SimDevice::Vccs { p, n, cp, cn, .. } => {
                [*p, *n, *cp, *cn]
            }
            SimDevice::NodeIc { node, .. } => [*node, None, None, None],
            SimDevice::Mosfet { d, g, s, b, .. } => [*d, *g, *s, *b],
        }
    }

    /// Freezes time-dependent state (PTM resistance) for a step ending at
    /// `t_next`.
    pub(crate) fn prepare_step(&mut self, t_next: f64) {
        if let SimDevice::Ptm { state, r_step, .. } = self {
            *r_step = state.resistance(t_next);
        }
    }

    /// Commits companion-model histories after an accepted step.
    pub(crate) fn commit(&mut self, x: &[f64], t_next: f64, dt: f64, method: Method) {
        match self {
            SimDevice::Capacitor { p, n, c, hist, .. } => {
                let v_new = volt(x, *p) - volt(x, *n);
                let co = cap_companion(method, *c, dt, hist);
                let i_new = co.g_eq * v_new + co.i_eq;
                hist.v_prev2 = hist.v_prev;
                hist.v_prev = v_new;
                hist.i_prev = i_new;
            }
            SimDevice::Inductor {
                p, n, branch, hist, ..
            } => {
                let i_new = x[*branch];
                let v_new = volt(x, *p) - volt(x, *n);
                hist.i_prev2 = hist.i_prev;
                hist.i_prev = i_new;
                hist.v_prev = v_new;
            }
            SimDevice::Mosfet {
                d,
                g,
                s,
                b,
                caps,
                h_gs,
                h_gd,
                h_gb,
                ..
            } => {
                let vg = volt(x, *g);
                for (node, c, hist) in [
                    (*s, caps.cgs, h_gs),
                    (*d, caps.cgd, h_gd),
                    (*b, caps.cgb, h_gb),
                ] {
                    let v_new = vg - volt(x, node);
                    let co = cap_companion(method, c, dt, hist);
                    let i_new = co.g_eq * v_new + co.i_eq;
                    hist.v_prev2 = hist.v_prev;
                    hist.v_prev = v_new;
                    hist.i_prev = i_new;
                }
            }
            SimDevice::Ptm { state, .. } => {
                state.update(t_next);
            }
            _ => {}
        }
    }

    /// Initialises companion histories from a DC solution.
    pub(crate) fn init_history(&mut self, x: &[f64]) {
        match self {
            SimDevice::Capacitor { p, n, hist, ic, .. } => {
                let v = ic.unwrap_or(volt(x, *p) - volt(x, *n));
                *hist = CapHistory {
                    v_prev: v,
                    i_prev: 0.0,
                    v_prev2: v,
                };
            }
            SimDevice::Inductor { branch, hist, .. } => {
                *hist = IndHistory {
                    i_prev: x[*branch],
                    v_prev: 0.0,
                    i_prev2: x[*branch],
                };
            }
            SimDevice::Mosfet {
                d,
                g,
                s,
                b,
                h_gs,
                h_gd,
                h_gb,
                ..
            } => {
                let vg = volt(x, *g);
                for (node, hist) in [(*s, h_gs), (*d, h_gd), (*b, h_gb)] {
                    let v = vg - volt(x, node);
                    *hist = CapHistory {
                        v_prev: v,
                        i_prev: 0.0,
                        v_prev2: v,
                    };
                }
            }
            _ => {}
        }
    }
}

/// A compiled circuit: devices plus the unknown layout and signal name maps.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCircuit {
    pub devices: Vec<SimDevice>,
    /// Total unknowns: (node_count - 1) + branch_count.
    pub size: usize,
    /// Node names for unknowns `0..node_count-1` (node index 1..).
    pub node_names: Vec<String>,
    /// Branch unknown names in branch order (element names).
    pub branch_names: Vec<String>,
    /// Indices into `devices` of PTM instances, with their names.
    pub ptm_devices: Vec<(usize, String)>,
    /// No device [reads the iterate](SimDevice::reads_iterate): within one
    /// transient step attempt every Newton iteration assembles the same
    /// system, so its solve is the same too.
    pub linear: bool,
    /// Indices into `devices` of the [sources](SimDevice::is_source), for
    /// the breakpoint search.
    pub sources: Vec<usize>,
    /// The element name of each of `sources`, in the same order.
    pub source_names: Vec<String>,
    /// Indices into `devices` whose transient stamp
    /// [writes the right-hand side](SimDevice::stamps_transient_rhs).
    pub rhs_devices: Vec<usize>,
    /// Indices into `devices` that [`commit`](SimDevice::commit)
    /// [changes](SimDevice::commits_state).
    pub stateful: Vec<usize>,
}

impl CompiledCircuit {
    /// Compiles a validated circuit.
    pub(crate) fn compile(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count();
        let to_unknown = |id: sfet_circuit::NodeId| -> Unknown {
            if id.is_ground() {
                None
            } else {
                Some(id.index() - 1)
            }
        };
        // Pass 1: branch-unknown layout. Voltage sources, inductors, VCVS
        // and CCVS own branch currents in element order; F/H cards resolve
        // their controlling voltage source's branch through this map, which
        // may point forward in the element list.
        let mut vsrc_branch: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        {
            let mut b = n_nodes - 1;
            for element in circuit.elements() {
                if element.has_branch_current() {
                    if let Element::VoltageSource(v) = element {
                        vsrc_branch.insert(v.name.clone(), b);
                    }
                    b += 1;
                }
            }
        }
        let control_branch = |name: &str| -> usize {
            *vsrc_branch
                .get(name)
                .expect("control source validated at circuit construction")
        };

        // Pass 2: build the devices (branch assignment replayed in the same
        // element order).
        let mut branch_names = Vec::new();
        let mut next_branch = n_nodes - 1;
        let mut devices = Vec::with_capacity(circuit.elements().len());
        let mut ptm_devices = Vec::new();
        let mut source_names = Vec::new();

        for element in circuit.elements() {
            let device = match element {
                Element::Resistor(r) => SimDevice::Resistor {
                    p: to_unknown(r.p),
                    n: to_unknown(r.n),
                    g: 1.0 / r.ohms,
                },
                Element::Capacitor(c) => SimDevice::Capacitor {
                    p: to_unknown(c.p),
                    n: to_unknown(c.n),
                    c: c.farads,
                    ic: c.ic,
                    hist: CapHistory::default(),
                },
                Element::Inductor(l) => {
                    let branch = next_branch;
                    next_branch += 1;
                    branch_names.push(l.name.clone());
                    SimDevice::Inductor {
                        p: to_unknown(l.p),
                        n: to_unknown(l.n),
                        branch,
                        l: l.henries,
                        hist: IndHistory::default(),
                    }
                }
                Element::VoltageSource(v) => {
                    let branch = next_branch;
                    next_branch += 1;
                    branch_names.push(v.name.clone());
                    source_names.push(v.name.clone());
                    SimDevice::Vsrc {
                        p: to_unknown(v.p),
                        n: to_unknown(v.n),
                        branch,
                        wave: v.wave.clone(),
                    }
                }
                Element::CurrentSource(i) => {
                    source_names.push(i.name.clone());
                    SimDevice::Isrc {
                        p: to_unknown(i.p),
                        n: to_unknown(i.n),
                        wave: i.wave.clone(),
                    }
                }
                Element::Vcvs(e) => {
                    let branch = next_branch;
                    next_branch += 1;
                    branch_names.push(e.name.clone());
                    SimDevice::Vcvs {
                        p: to_unknown(e.p),
                        n: to_unknown(e.n),
                        cp: to_unknown(e.cp),
                        cn: to_unknown(e.cn),
                        branch,
                        gain: e.gain,
                    }
                }
                Element::Vccs(g) => SimDevice::Vccs {
                    p: to_unknown(g.p),
                    n: to_unknown(g.n),
                    cp: to_unknown(g.cp),
                    cn: to_unknown(g.cn),
                    gm: g.gm,
                },
                Element::Cccs(f) => SimDevice::Cccs {
                    p: to_unknown(f.p),
                    n: to_unknown(f.n),
                    cbranch: control_branch(&f.vname),
                    gain: f.gain,
                },
                Element::Ccvs(h) => {
                    let branch = next_branch;
                    next_branch += 1;
                    branch_names.push(h.name.clone());
                    SimDevice::Ccvs {
                        p: to_unknown(h.p),
                        n: to_unknown(h.n),
                        cbranch: control_branch(&h.vname),
                        branch,
                        r: h.r,
                    }
                }
                Element::Mosfet(m) => SimDevice::Mosfet {
                    d: to_unknown(m.d),
                    g: to_unknown(m.g),
                    s: to_unknown(m.s),
                    b: to_unknown(m.b),
                    model: m.model.clone(),
                    w: m.w,
                    l: m.l,
                    caps: mosfet::gate_caps(&m.model, m.w, m.l),
                    h_gs: CapHistory::default(),
                    h_gd: CapHistory::default(),
                    h_gb: CapHistory::default(),
                },
                Element::Ptm(p) => {
                    ptm_devices.push((devices.len(), p.name.clone()));
                    SimDevice::Ptm {
                        p: to_unknown(p.p),
                        n: to_unknown(p.n),
                        state: PtmState::new(p.params)
                            .expect("params validated at circuit construction"),
                        r_step: p.params.r_ins,
                        events: Vec::new(),
                    }
                }
            };
            devices.push(device);
        }

        // `.ic` pins ride along as pseudo-devices active only in DC mode.
        for (node, v) in circuit.node_ics() {
            devices.push(SimDevice::NodeIc {
                node: to_unknown(*node),
                v: *v,
            });
        }

        let node_names = (1..n_nodes)
            .map(|i| {
                circuit
                    .node_name(sfet_circuit::NodeId::from_index(i))
                    .to_string()
            })
            .collect();

        // The per-step passes of the transient stepper walk only the
        // devices their pass acts on.
        let role = |acts: fn(&SimDevice) -> bool| -> Vec<usize> {
            (0..devices.len()).filter(|&i| acts(&devices[i])).collect()
        };
        CompiledCircuit {
            linear: !devices.iter().any(SimDevice::reads_iterate),
            sources: role(SimDevice::is_source),
            source_names,
            rhs_devices: role(SimDevice::stamps_transient_rhs),
            stateful: role(SimDevice::commits_state),
            devices,
            size: next_branch,
            node_names,
            branch_names,
            ptm_devices,
        }
    }

    /// The index into `devices` of the independent source named `name`.
    pub(crate) fn source_named(&self, name: &str) -> Option<usize> {
        let mut named = self.sources.iter().zip(&self.source_names);
        named.find_map(|(&i, source)| (source == name).then_some(i))
    }

    /// Fires every armed PTM whose terminal voltage at iterate `x` has
    /// reached its threshold, at time `t`: records each event, emits its
    /// counter and returns how many fired. DC init, the DC sweep's settling
    /// and every accepted transient step fire PTMs here.
    pub(crate) fn fire_ptms(&mut self, x: &[f64], t: f64, tel: &Telemetry) -> usize {
        let mut fired = 0;
        for &(i, _) in &self.ptm_devices {
            let device = &mut self.devices[i];
            if !device
                .threshold_excess(x)
                .is_some_and(|excess| excess >= 0.0)
            {
                continue;
            }
            if let SimDevice::Ptm { state, events, .. } = device {
                let event = state.fire(t);
                trace::emit_ptm_event(tel, &event);
                events.push(event);
                fired += 1;
            }
        }
        fired
    }

    /// Commits an accepted step: [`commit`](SimDevice::commit)s only the
    /// devices it changes.
    pub(crate) fn commit_step(&mut self, x: &[f64], t_next: f64, dt: f64, method: Method) {
        for &i in &self.stateful {
            self.devices[i].commit(x, t_next, dt, method);
        }
    }

    /// The earliest source breakpoint strictly after `t`, if any.
    pub(crate) fn next_breakpoint(&self, t: f64) -> Option<f64> {
        self.sources
            .iter()
            .filter_map(|&i| self.devices[i].next_breakpoint(t))
            // total_cmp, not partial_cmp: a NaN breakpoint from a degenerate
            // waveform must not panic the stepper mid-run (NaN sorts last
            // under total order, so finite breakpoints still win the min).
            .filter(|t| t.is_finite())
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::capture_devices;
    use crate::matrix::LinearSolver;
    use sfet_devices::ptm::PtmParams;

    /// One element of every kind and a `.ic` pin; both sources ramp with
    /// corners after t = 0.
    fn every_kind() -> Circuit {
        let mut ckt = Circuit::new();
        let [a, b, c, d, e, f] = ["a", "b", "c", "d", "e", "f"].map(|n| ckt.node(n));
        let g = Circuit::ground();
        let ramp = |v1| SourceWaveform::ramp(0.0, v1, 1e-12, 2e-12);
        ckt.add_voltage_source("V1", a, g, ramp(1.0)).unwrap();
        ckt.add_current_source("I1", b, g, ramp(1e-3)).unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, g, 1e-15).unwrap();
        ckt.add_inductor("L1", b, c, 1e-9).unwrap();
        ckt.add_vcvs("E1", d, g, a, g, 2.0).unwrap();
        ckt.add_vccs("G1", c, g, a, g, 1e-3).unwrap();
        ckt.add_cccs("F1", e, g, "V1", 0.5).unwrap();
        ckt.add_ccvs("H1", f, g, "V1", 100.0).unwrap();
        ckt.add_mosfet("M1", c, a, g, g, MosfetModel::nmos_40nm(), 200e-9, 40e-9)
            .unwrap();
        ckt.add_ptm("P1", a, f, PtmParams::vo2_default()).unwrap();
        ckt.set_node_ic(d, 0.3);
        ckt
    }

    /// Each per-step pass of the transient stepper walks one role list
    /// instead of every device, so no device outside a list may be one
    /// that pass changes or reads.
    #[test]
    fn role_lists_hold_every_device_their_pass_acts_on() {
        let mut compiled = CompiledCircuit::compile(&every_kind());
        let kinds: std::collections::HashSet<_> = compiled
            .devices
            .iter()
            .map(std::mem::discriminant)
            .collect();
        assert_eq!(kinds.len(), 12, "one device of every kind");

        // Nonzero histories everywhere and the PTM mid-transition, so each
        // pass has something to change.
        let n = compiled.size;
        let method = Method::Trapezoidal;
        let (dt, t0) = (1e-13, 2.4e-12);
        let x0: Vec<f64> = (0..n).map(|k| 0.1 + 0.07 * k as f64).collect();
        let x1: Vec<f64> = x0.iter().map(|v| 0.02 - 0.5 * v).collect();
        for device in &mut compiled.devices {
            device.init_history(&x0);
            if let SimDevice::Ptm { state, .. } = device {
                state.fire(t0);
            }
        }
        let t_next = t0 + dt;
        let mode = StampMode::Transient { t_next, dt, method };
        let sentinel: Vec<f64> = (0..n).map(|k| -0.0 - 0.375 * k as f64).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut ptm_pass = Vec::new();

        for (i, device) in compiled.devices.iter().enumerate() {
            let what = format!("device {i} ({device:?})");

            let mut rhs = sentinel.clone();
            let mut jac = MnaMatrix::new(LinearSolver::Dense, n, true);
            device.stamp(mode, &x1, &mut jac, &mut rhs, 1e-12);
            assert_eq!(
                bits(&rhs) != bits(&sentinel),
                compiled.rhs_devices.contains(&i),
                "{what}: writes the right-hand side exactly when in `rhs_devices`"
            );

            let mut probe = compiled.clone();
            probe.stateful = vec![i];
            probe.commit_step(&x1, t_next + 1e-9, dt, method);
            assert_eq!(
                capture_devices(&probe) != capture_devices(&compiled),
                compiled.stateful.contains(&i),
                "{what}: `commit` changes it exactly when in `stateful`"
            );

            assert_eq!(
                device.next_breakpoint(0.0).is_some(),
                compiled.sources.contains(&i),
                "{what}: has breakpoints exactly when in `sources`"
            );

            // DC init walks `stateful` for `init_history`.
            let mut probe = compiled.clone();
            probe.devices[i].init_history(&x1);
            if capture_devices(&probe) != capture_devices(&compiled) {
                assert!(
                    compiled.stateful.contains(&i),
                    "{what}: `init_history` changes it, so it must be in `stateful`"
                );
            }

            let mut probe = compiled.clone();
            probe.devices[i].prepare_step(t_next);
            let prepares = capture_devices(&probe) != capture_devices(&compiled);
            let is_ptm = matches!(device, SimDevice::Ptm { .. });
            if is_ptm || prepares || device.jacobian_key().is_some() {
                ptm_pass.push(i);
            }
        }
        let ptm_devices: Vec<usize> = compiled.ptm_devices.iter().map(|&(i, _)| i).collect();
        assert_eq!(ptm_pass, ptm_devices, "the PTM passes' list");
    }
}
