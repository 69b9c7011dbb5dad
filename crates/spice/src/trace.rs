//! Simulation results: sampled node voltages over time.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{Result, SpiceError};

/// Time-series output of a transient analysis.
///
/// Stores one voltage sample per node per accepted timestep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    times: Vec<f64>,
    /// `voltages[node][step]`.
    voltages: Vec<Vec<f64>>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Trace {
    pub(crate) fn new(node_names: &[String]) -> Self {
        let index = node_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        Self {
            times: Vec::new(),
            voltages: vec![Vec::new(); node_names.len()],
            index,
        }
    }

    pub(crate) fn push(&mut self, t: f64, solution: &[f64]) {
        self.times.push(t);
        for (i, samples) in self.voltages.iter_mut().enumerate() {
            samples.push(solution[i]);
        }
    }

    /// Sample times, in seconds.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted timesteps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage samples for the named node.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] when the node does not exist.
    pub fn voltage(&self, node: &str) -> Result<&[f64]> {
        let &i = self
            .index
            .get(node)
            .ok_or_else(|| SpiceError::UnknownNode(node.to_owned()))?;
        Ok(&self.voltages[i])
    }

    /// Voltage of `node` at the sample nearest to time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownNode`] when the node does not exist, or
    /// [`SpiceError::InvalidParameter`] when the trace is empty.
    pub fn voltage_at(&self, node: &str, t: f64) -> Result<f64> {
        let samples = self.voltage(node)?;
        if samples.is_empty() {
            return Err(SpiceError::InvalidParameter(
                "trace holds no samples".to_owned(),
            ));
        }
        let idx = match self.times.binary_search_by(|probe| probe.total_cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= self.times.len() => self.times.len() - 1,
            Err(i) => {
                // Pick the nearer neighbour.
                if (self.times[i] - t).abs() < (t - self.times[i - 1]).abs() {
                    i
                } else {
                    i - 1
                }
            }
        };
        Ok(samples[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let names = vec!["a".to_owned(), "b".to_owned()];
        let mut tr = Trace::new(&names);
        tr.push(0.0, &[0.0, 1.0, -0.001]);
        tr.push(1.0, &[0.5, 0.8, -0.002]);
        tr.push(2.0, &[1.0, 0.6, -0.003]);
        tr
    }

    #[test]
    fn voltage_lookup_by_name() {
        let tr = sample_trace();
        assert_eq!(tr.voltage("a").unwrap(), &[0.0, 0.5, 1.0]);
        assert_eq!(tr.voltage("b").unwrap(), &[1.0, 0.8, 0.6]);
        assert!(tr.voltage("zzz").is_err());
    }

    #[test]
    fn voltage_at_picks_nearest_sample() {
        let tr = sample_trace();
        assert_eq!(tr.voltage_at("a", -5.0).unwrap(), 0.0);
        assert_eq!(tr.voltage_at("a", 0.9).unwrap(), 0.5);
        assert_eq!(tr.voltage_at("a", 1.6).unwrap(), 1.0);
        assert_eq!(tr.voltage_at("a", 99.0).unwrap(), 1.0);
    }

    #[test]
    fn empty_trace_behaviour() {
        let tr = Trace::new(&["n".to_owned()]);
        assert!(tr.is_empty());
        assert_eq!(tr.len(), 0);
        assert!(tr.voltage_at("n", 0.0).is_err());
    }
}
