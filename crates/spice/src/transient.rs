//! Backward-Euler transient analysis with Newton–Raphson iteration.

use std::collections::HashMap;

use oisa_units::{Second, Volt};

use crate::circuit::{Circuit, NodeId};
use crate::elements::Element;
use crate::linalg::DenseMatrix;
use crate::trace::Trace;
use crate::{Result, SpiceError};

/// Minimum conductance tied from every node to ground, keeping the MNA
/// matrix regular when devices cut off.
const GMIN: f64 = 1e-12;

/// Newton voltage convergence tolerance, volts.
const V_TOL: f64 = 1e-6;

/// Maximum Newton iterations per timestep.
const MAX_NEWTON: usize = 200;

/// Configuration and driver for a fixed-step transient simulation.
///
/// Backward Euler is intentionally chosen over trapezoidal integration: it
/// is A- and L-stable, so the hard switching in the pixel/driver circuits
/// cannot excite numerical ringing. The fixed step keeps runs reproducible.
///
/// # Examples
///
/// See the crate-level example; [`TransientAnalysis::with_initial_condition`]
/// seeds node voltages at `t = 0` (SPICE `.ic`).
#[derive(Debug, Clone)]
pub struct TransientAnalysis {
    t_stop: f64,
    dt: f64,
    initial_conditions: HashMap<NodeId, f64>,
}

impl TransientAnalysis {
    /// Creates an analysis running to `t_stop` with fixed step `dt`.
    #[must_use]
    pub fn new(t_stop: Second, dt: Second) -> Self {
        Self {
            t_stop: t_stop.get(),
            dt: dt.get(),
            initial_conditions: HashMap::new(),
        }
    }

    /// Sets the initial voltage of `node` at `t = 0`.
    #[must_use]
    pub fn with_initial_condition(mut self, node: NodeId, v: Volt) -> Self {
        self.initial_conditions.insert(node, v.get());
        self
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidParameter`] for a non-positive step or stop
    ///   time.
    /// * [`SpiceError::SingularMatrix`] for ill-formed topologies.
    /// * [`SpiceError::NonConvergent`] if Newton iteration stalls.
    pub fn run(&self, circuit: &Circuit) -> Result<Trace> {
        if self.dt <= 0.0 || !self.dt.is_finite() {
            return Err(SpiceError::InvalidParameter(format!(
                "timestep must be positive and finite, got {} s",
                self.dt
            )));
        }
        if self.t_stop <= 0.0 || !self.t_stop.is_finite() {
            return Err(SpiceError::InvalidParameter(format!(
                "stop time must be positive and finite, got {} s",
                self.t_stop
            )));
        }
        let n_nodes = circuit.node_count();
        let n_unknowns = circuit.unknown_count();
        let mut solution = vec![0.0f64; n_unknowns];
        for (&node, &v) in &self.initial_conditions {
            if node != Circuit::GND {
                solution[node.0] = v;
            }
        }
        let mut prev_node_v = solution[..n_nodes].to_vec();

        let mut trace = Trace::new(circuit.node_names());
        trace.push(0.0, &solution);

        let steps = (self.t_stop / self.dt).ceil() as usize;
        let mut matrix = DenseMatrix::zeros(n_unknowns);
        let mut rhs = vec![0.0f64; n_unknowns];

        for step in 1..=steps {
            let t = step as f64 * self.dt;
            let mut converged = false;
            // Newton iteration; `solution` carries the current iterate and
            // is warm-started from the previous timestep.
            for _ in 0..MAX_NEWTON {
                matrix.clear();
                rhs.fill(0.0);
                stamp(
                    circuit,
                    t,
                    self.dt,
                    &solution[..n_nodes],
                    &prev_node_v,
                    &mut matrix,
                    &mut rhs,
                );
                let mut next = rhs.clone();
                matrix.solve_in_place(&mut next)?;
                let max_delta = solution[..n_nodes]
                    .iter()
                    .zip(&next[..n_nodes])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                solution.copy_from_slice(&next);
                if max_delta < V_TOL {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(SpiceError::NonConvergent { time: t });
            }
            prev_node_v.copy_from_slice(&solution[..n_nodes]);
            trace.push(t, &solution);
        }
        Ok(trace)
    }
}

/// Voltage of `node` in the iterate `v`, treating ground as 0.
#[inline]
fn volt(v: &[f64], node: NodeId) -> f64 {
    if node == Circuit::GND {
        0.0
    } else {
        v[node.0]
    }
}

/// Adds `g` between nodes `a` and `b` (standard two-terminal conductance
/// stamp).
fn stamp_conductance(matrix: &mut DenseMatrix, a: NodeId, b: NodeId, g: f64) {
    if a != Circuit::GND {
        matrix.add(a.0, a.0, g);
    }
    if b != Circuit::GND {
        matrix.add(b.0, b.0, g);
    }
    if a != Circuit::GND && b != Circuit::GND {
        matrix.add(a.0, b.0, -g);
        matrix.add(b.0, a.0, -g);
    }
}

/// Injects current `i` into node `into` and draws it from `from`.
fn stamp_current(rhs: &mut [f64], from: NodeId, into: NodeId, i: f64) {
    if into != Circuit::GND {
        rhs[into.0] += i;
    }
    if from != Circuit::GND {
        rhs[from.0] -= i;
    }
}

#[allow(clippy::too_many_lines)]
fn stamp(
    circuit: &Circuit,
    t: f64,
    dt: f64,
    iterate: &[f64],
    prev: &[f64],
    matrix: &mut DenseMatrix,
    rhs: &mut [f64],
) {
    let n_nodes = circuit.node_count();
    for i in 0..n_nodes {
        matrix.add(i, i, GMIN);
    }
    for element in &circuit.elements {
        match element {
            Element::Resistor { a, b, conductance } => {
                stamp_conductance(matrix, *a, *b, *conductance);
            }
            Element::Capacitor { a, b, capacitance } => {
                // Backward-Euler companion: geq = C/h in parallel with a
                // history current source geq·v(t−h).
                let geq = capacitance / dt;
                stamp_conductance(matrix, *a, *b, geq);
                let v_prev = volt(prev, *a) - volt(prev, *b);
                stamp_current(rhs, *b, *a, geq * v_prev);
            }
            Element::VSource {
                pos,
                neg,
                wave,
                branch,
            } => {
                let row = n_nodes + branch;
                if *pos != Circuit::GND {
                    matrix.add(pos.0, row, 1.0);
                    matrix.add(row, pos.0, 1.0);
                }
                if *neg != Circuit::GND {
                    matrix.add(neg.0, row, -1.0);
                    matrix.add(row, neg.0, -1.0);
                }
                rhs[row] += wave.value_at(t);
            }
            Element::ISource { from, to, wave } => {
                stamp_current(rhs, *from, *to, wave.value_at(t));
            }
            Element::Switch {
                a,
                b,
                control,
                params,
            } => {
                let closed = volt(iterate, *control) > params.threshold;
                let g = if closed {
                    1.0 / params.r_on
                } else {
                    1.0 / params.r_off
                };
                stamp_conductance(matrix, *a, *b, g);
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                params,
            } => {
                let vg = volt(iterate, *gate);
                let vd = volt(iterate, *drain);
                let vs = volt(iterate, *source);
                let op = params.evaluate(vg, vd, vs);
                // Linearised drain current:
                //   id ≈ id0 + gg·Δvg + gd·Δvd + gs·Δvs
                // KCL rows: +id leaves the drain, enters the source.
                let i_eq = op.id - op.did_dvg * vg - op.did_dvd * vd - op.did_dvs * vs;
                for (node, sign) in [(*drain, 1.0), (*source, -1.0)] {
                    if node == Circuit::GND {
                        continue;
                    }
                    let row = node.0;
                    if *gate != Circuit::GND {
                        matrix.add(row, gate.0, sign * op.did_dvg);
                    }
                    if *drain != Circuit::GND {
                        matrix.add(row, drain.0, sign * op.did_dvd);
                    }
                    if *source != Circuit::GND {
                        matrix.add(row, source.0, sign * op.did_dvs);
                    }
                    rhs[row] -= sign * i_eq;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{MosParams, SwitchParams};
    use crate::waveform::Waveform;
    use oisa_units::{Farad, Ohm};

    #[test]
    fn rc_step_matches_analytic_charging() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.resistor("R1", vin, out, Ohm::from_kilo(1.0)).unwrap();
        ckt.capacitor("C1", out, Circuit::GND, Farad::from_nano(1.0))
            .unwrap();
        // τ = 1 µs; simulate 3 µs with 1 ns steps.
        let trace = TransientAnalysis::new(Second::from_micro(3.0), Second::from_nano(1.0))
            .run(&ckt)
            .unwrap();
        let tau = 1e-6;
        for &t in [0.5e-6f64, 1e-6, 2e-6].iter() {
            let expected = 1.0 - (-t / tau).exp();
            let got = trace.voltage_at("out", t).unwrap();
            assert!(
                (got - expected).abs() < 5e-3,
                "t={t}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn voltage_divider_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0))
            .unwrap();
        ckt.resistor("R1", vin, mid, Ohm::from_kilo(1.0)).unwrap();
        ckt.resistor("R2", mid, Circuit::GND, Ohm::from_kilo(3.0))
            .unwrap();
        let trace = TransientAnalysis::new(Second::from_nano(10.0), Second::from_nano(1.0))
            .run(&ckt)
            .unwrap();
        let v = trace.voltage("mid").unwrap().last().copied().unwrap();
        assert!((v - 1.5).abs() < 1e-6);
    }

    #[test]
    fn initial_condition_discharges_through_resistor() {
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        ckt.capacitor("C1", top, Circuit::GND, Farad::from_pico(100.0))
            .unwrap();
        ckt.resistor("R1", top, Circuit::GND, Ohm::from_kilo(10.0))
            .unwrap();
        // τ = 1 µs, start at 1 V.
        let trace = TransientAnalysis::new(Second::from_micro(1.0), Second::from_nano(1.0))
            .with_initial_condition(top, Volt::new(1.0))
            .run(&ckt)
            .unwrap();
        let v_tau = trace.voltage_at("top", 1e-6).unwrap();
        assert!((v_tau - (-1.0f64).exp()).abs() < 5e-3, "got {v_tau}");
    }

    #[test]
    fn switch_connects_on_control_high() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let ctl = ckt.node("ctl");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.vsource(
            "VCTL",
            ctl,
            Circuit::GND,
            Waveform::pulse(0.0, 1.0, 5e-9, 1e-10, 1e-10, 10e-9, 0.0),
        )
        .unwrap();
        ckt.switch("S1", vdd, out, ctl, SwitchParams::default())
            .unwrap();
        ckt.resistor("RL", out, Circuit::GND, Ohm::from_kilo(1.0))
            .unwrap();
        let trace = TransientAnalysis::new(Second::from_nano(20.0), Second::from_pico(100.0))
            .run(&ckt)
            .unwrap();
        assert!(trace.voltage_at("out", 2e-9).unwrap() < 1e-3);
        assert!(trace.voltage_at("out", 10e-9).unwrap() > 0.99);
    }

    #[test]
    fn nmos_inverter_transfers() {
        // Resistive-load inverter: out high when gate low, pulled low when
        // gate high.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("gate");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.vsource(
            "VG",
            gate,
            Circuit::GND,
            Waveform::Pwl(vec![(0.0, 0.0), (10e-9, 0.0), (11e-9, 1.0)]),
        )
        .unwrap();
        ckt.resistor("RL", vdd, out, Ohm::from_kilo(50.0)).unwrap();
        ckt.mosfet("M1", out, gate, Circuit::GND, MosParams::nmos(10.0))
            .unwrap();
        let trace = TransientAnalysis::new(Second::from_nano(20.0), Second::from_pico(50.0))
            .run(&ckt)
            .unwrap();
        assert!(trace.voltage_at("out", 5e-9).unwrap() > 0.95);
        assert!(trace.voltage_at("out", 18e-9).unwrap() < 0.2);
    }

    #[test]
    fn nmos_current_mirror_row_weights_double() {
        // Four diode-connected legs with W/L ratios 1:2:4:8 share a gate:
        // the summed drain current doubles with each leg, which is the AWC
        // principle (paper Fig. 4).
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("gate");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        // Reference leg: resistor sets the bias through a diode-connected
        // NMOS.
        ckt.resistor("RB", vdd, gate, Ohm::from_kilo(20.0)).unwrap();
        ckt.mosfet("M0", gate, gate, Circuit::GND, MosParams::nmos(1.0))
            .unwrap();
        // Mirror legs with doubling widths; λ = 0 for exact ratios.
        let ideal = MosParams {
            lambda: 0.0,
            ..MosParams::nmos(1.0)
        };
        // Each leg draws from VDD through a 1 kΩ sense resistor; its drain
        // stays in saturation, so the drop reads the mirrored current.
        let r_sense = 1e3;
        for (i, w) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            let node = ckt.node(&format!("d{i}"));
            ckt.resistor(&format!("RS{i}"), vdd, node, Ohm::new(r_sense))
                .unwrap();
            ckt.mosfet(
                &format!("M{}", i + 1),
                node,
                gate,
                Circuit::GND,
                MosParams {
                    w_over_l: *w,
                    ..ideal
                },
            )
            .unwrap();
        }
        let trace = TransientAnalysis::new(Second::from_nano(10.0), Second::from_pico(100.0))
            .run(&ckt)
            .unwrap();
        let v = |node: &str| trace.voltage(node).unwrap().last().copied().unwrap();
        let i: Vec<f64> = (0..4)
            .map(|k| (v("vdd") - v(&format!("d{k}"))) / r_sense)
            .collect();
        for k in 1..4 {
            let ratio = i[k] / i[k - 1];
            assert!(
                (ratio - 2.0).abs() < 0.05,
                "leg {k} ratio {ratio} (currents {i:?})"
            );
        }
    }

    #[test]
    fn floating_node_reports_singular_or_converges_via_gmin() {
        // A node connected only through a capacitor is handled by GMIN.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.capacitor("C1", a, b, Farad::from_pico(1.0)).unwrap();
        let trace =
            TransientAnalysis::new(Second::from_nano(2.0), Second::from_pico(100.0)).run(&ckt);
        assert!(trace.is_ok());
    }

    #[test]
    fn invalid_timestep_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.resistor("R1", a, Circuit::GND, Ohm::new(1.0)).unwrap();
        let res = TransientAnalysis::new(Second::from_nano(1.0), Second::ZERO).run(&ckt);
        assert!(matches!(res, Err(SpiceError::InvalidParameter(_))));
    }

    #[test]
    fn energy_conservation_rc_discharge() {
        // The energy dissipated in R equals the initial capacitor energy.
        let mut ckt = Circuit::new();
        let top = ckt.node("top");
        let c = Farad::from_pico(10.0);
        let r = Ohm::from_kilo(1.0);
        ckt.capacitor("C1", top, Circuit::GND, c).unwrap();
        ckt.resistor("R1", top, Circuit::GND, r).unwrap();
        let dt = Second::from_pico(10.0);
        let trace = TransientAnalysis::new(Second::from_nano(100.0), dt)
            .with_initial_condition(top, Volt::new(1.0))
            .run(&ckt)
            .unwrap();
        let dissipated: f64 = trace
            .voltage("top")
            .unwrap()
            .iter()
            .map(|v| v * v / r.get() * dt.get())
            .sum();
        let initial = 0.5 * c.get(); // ½CV² with V = 1
        let err = (dissipated - initial).abs() / initial;
        assert!(err < 0.05, "dissipated {dissipated}, stored {initial}");
    }
}
