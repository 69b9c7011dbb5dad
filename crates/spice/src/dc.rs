//! DC operating-point analysis and source sweeps.
//!
//! The operating point solves the static network with capacitors open
//! (their companion conductance is zero at DC) using the same Newton
//! iteration as the transient engine. [`dc_sweep`] repeats the solve for
//! a list of values on one named source — the classic `.dc` analysis,
//! used here to characterise the AWC transfer curve and the pixel
//! source-follower without paying for a transient.

use oisa_units::Volt;

use crate::circuit::{Circuit, NodeId};
use crate::elements::Element;
use crate::linalg::DenseMatrix;
use crate::waveform::Waveform;
use crate::{Result, SpiceError};

const GMIN: f64 = 1e-12;
const V_TOL: f64 = 1e-9;
const MAX_NEWTON: usize = 300;

/// Solution of one DC operating point, indexed like the transient
/// solution vector: node voltages first, then voltage-source branch
/// currents.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    node_names: Vec<String>,
    solution: Vec<f64>,
}

impl OperatingPoint {
    /// Voltage of a named node.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] for an unknown name.
    pub fn voltage(&self, node: &str) -> Result<Volt> {
        let idx = self
            .node_names
            .iter()
            .position(|n| n == node)
            .ok_or_else(|| SpiceError::UnknownNode(node.to_owned()))?;
        Ok(Volt::new(self.solution[idx]))
    }
}

/// Solves the DC operating point with sources evaluated at `t = 0`.
///
/// # Errors
///
/// * [`SpiceError::SingularMatrix`] for ill-formed topologies.
/// * [`SpiceError::NonConvergent`] if Newton iteration stalls.
pub(crate) fn dc_operating_point(circuit: &Circuit) -> Result<OperatingPoint> {
    let n_nodes = circuit.node_count();
    let n = circuit.unknown_count();
    let mut solution = vec![0.0f64; n];
    let mut matrix = DenseMatrix::zeros(n);
    let mut rhs = vec![0.0f64; n];
    let mut converged = false;
    for _ in 0..MAX_NEWTON {
        matrix.clear();
        rhs.fill(0.0);
        stamp_dc(circuit, &solution[..n_nodes], &mut matrix, &mut rhs);
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
        return Err(SpiceError::NonConvergent { time: 0.0 });
    }
    Ok(OperatingPoint {
        node_names: circuit.node_names().to_vec(),
        solution,
    })
}

/// Sweeps the named source over `values`, returning one operating point
/// per value.
///
/// # Errors
///
/// Propagates [`Circuit::set_source`] and operating-point failures.
pub fn dc_sweep(circuit: &Circuit, source: &str, values: &[f64]) -> Result<Vec<OperatingPoint>> {
    let mut work = circuit.clone();
    values
        .iter()
        .map(|&v| {
            work.set_source(source, Waveform::dc(v))?;
            dc_operating_point(&work)
        })
        .collect()
}

fn stamp_dc(circuit: &Circuit, iterate: &[f64], matrix: &mut DenseMatrix, rhs: &mut [f64]) {
    let n_nodes = circuit.node_count();
    for i in 0..n_nodes {
        matrix.add(i, i, GMIN);
    }
    let volt = |node: NodeId| -> f64 {
        if node == Circuit::GND {
            0.0
        } else {
            iterate[node.0]
        }
    };
    for element in &circuit.elements {
        match element {
            Element::Resistor { a, b, conductance } => {
                stamp_g(matrix, *a, *b, *conductance);
            }
            // Capacitors are open at DC; a GMIN leak keeps their nodes
            // referenced.
            Element::Capacitor { a, b, .. } => {
                stamp_g(matrix, *a, *b, GMIN);
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
                rhs[row] += wave.value_at(0.0);
            }
            Element::ISource { from, to, wave } => {
                let i = wave.value_at(0.0);
                if *to != Circuit::GND {
                    rhs[to.0] += i;
                }
                if *from != Circuit::GND {
                    rhs[from.0] -= i;
                }
            }
            Element::Switch {
                a,
                b,
                control,
                params,
            } => {
                let g = if volt(*control) > params.threshold {
                    1.0 / params.r_on
                } else {
                    1.0 / params.r_off
                };
                stamp_g(matrix, *a, *b, g);
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                params,
            } => {
                let op = params.evaluate(volt(*gate), volt(*drain), volt(*source));
                let i_eq = op.id
                    - op.did_dvg * volt(*gate)
                    - op.did_dvd * volt(*drain)
                    - op.did_dvs * volt(*source);
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

fn stamp_g(matrix: &mut DenseMatrix, a: NodeId, b: NodeId, g: f64) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosParams;
    use oisa_units::{Farad, Ohm};

    #[test]
    fn divider_operating_point() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(3.0))
            .unwrap();
        ckt.resistor("R1", vin, mid, Ohm::from_kilo(2.0)).unwrap();
        ckt.resistor("R2", mid, Circuit::GND, Ohm::from_kilo(1.0))
            .unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!((op.voltage("mid").unwrap().get() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn capacitor_open_at_dc() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.resistor("R1", vin, out, Ohm::from_kilo(1.0)).unwrap();
        ckt.capacitor("C1", out, Circuit::GND, Farad::from_pico(1.0))
            .unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        // No DC path to ground through the cap → out floats to vin.
        assert!((op.voltage("out").unwrap().get() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn nmos_diode_connected_operating_point() {
        // Diode-connected NMOS below a resistor: V_gs settles just above
        // threshold.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.resistor("RB", vdd, d, Ohm::from_kilo(20.0)).unwrap();
        ckt.mosfet("M1", d, d, Circuit::GND, MosParams::nmos(4.0))
            .unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        let v = op.voltage("d").unwrap().get();
        assert!(v > 0.4 && v < 0.8, "diode voltage {v}");
    }

    #[test]
    fn sweep_traces_transfer_curve() {
        // NMOS common-source amp: sweep the gate, watch the output fall.
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let gate = ckt.node("g");
        let out = ckt.node("o");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.vsource("VG", gate, Circuit::GND, Waveform::dc(0.0))
            .unwrap();
        ckt.resistor("RL", vdd, out, Ohm::from_kilo(50.0)).unwrap();
        ckt.mosfet("M1", out, gate, Circuit::GND, MosParams::nmos(10.0))
            .unwrap();
        let points = dc_sweep(&ckt, "VG", &[0.0, 0.3, 0.5, 0.7, 1.0]).unwrap();
        let outs: Vec<f64> = points
            .iter()
            .map(|p| p.voltage("o").unwrap().get())
            .collect();
        assert!(outs[0] > 0.99, "cutoff: {outs:?}");
        for w in outs.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "monotone falling VTC: {outs:?}");
        }
        assert!(outs[4] < 0.2, "strong inversion: {outs:?}");
    }

    #[test]
    fn set_source_validation() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.resistor("R1", a, Circuit::GND, Ohm::new(100.0))
            .unwrap();
        assert!(ckt.set_source("V1", Waveform::dc(2.0)).is_ok());
        assert!(ckt.set_source("R1", Waveform::dc(2.0)).is_err());
        assert!(ckt.set_source("nope", Waveform::dc(2.0)).is_err());
    }

    #[test]
    fn operating_point_unknown_node() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0))
            .unwrap();
        ckt.resistor("R1", a, Circuit::GND, Ohm::new(100.0))
            .unwrap();
        let op = dc_operating_point(&ckt).unwrap();
        assert!(op.voltage("zzz").is_err());
    }
}
