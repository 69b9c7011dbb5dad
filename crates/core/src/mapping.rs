//! Hardware mapping and bank allocation (paper §III-B, Figs. 5 and 6).
//!
//! A convolution of `out_ch × in_ch` kernel planes must be placed onto
//! the OPC's arm slots:
//!
//! * **3×3** — one plane per arm, five planes per bank (`n = 5`);
//! * **5×5 / 7×7** — one plane per bank, spread over 3 / 5 arms whose
//!   partial sums the VOM re-aggregates (`n = 1`).
//!
//! When fewer planes exist than slots, the mapper replicates planes so
//! several *strides* (output positions) evaluate in parallel; when more
//! exist, the convolution runs in multiple passes with a re-mapping
//! (AWC tuning) phase between passes. Tuning is serialised over the 40
//! shared AWC units, 40 rings per iteration — a full 4000-ring map is the
//! paper's "100 iterations".

use oisa_optics::opc::{KernelSize, OpcConfig};
use serde::{Deserialize, Serialize};

use crate::{CoreError, Result};

/// A first-layer convolution workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvWorkload {
    /// Output channels (number of kernels).
    pub out_channels: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Kernel side (3, 5 or 7).
    pub kernel: usize,
    /// Input height.
    pub input_h: usize,
    /// Input width.
    pub input_w: usize,
    /// Stride of the convolution.
    pub stride: usize,
}

impl ConvWorkload {
    /// The paper's reference workload: the first layer of ResNet18 on a
    /// 128×128 sensor (64 kernels, 3 input channels, 7×7, stride 2).
    #[must_use]
    pub fn resnet18_first_layer() -> Self {
        Self {
            out_channels: 64,
            in_channels: 3,
            kernel: 7,
            input_h: 128,
            input_w: 128,
            stride: 2,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.out_channels == 0 || self.in_channels == 0 || self.stride == 0 {
            return Err(CoreError::InvalidParameter(
                "channels and stride must be positive".into(),
            ));
        }
        if self.input_h < self.kernel || self.input_w < self.kernel {
            return Err(CoreError::InvalidParameter(format!(
                "input {}x{} smaller than kernel {}",
                self.input_h, self.input_w, self.kernel
            )));
        }
        Ok(())
    }

    /// Output feature-map size `(h, w)` (valid padding, as the pixel
    /// plane feeds the OPC directly).
    #[must_use]
    pub fn output_size(&self) -> (usize, usize) {
        (
            (self.input_h - self.kernel) / self.stride + 1,
            (self.input_w - self.kernel) / self.stride + 1,
        )
    }

    /// Kernel planes to map (`out_ch × in_ch`).
    #[must_use]
    pub(crate) fn kernel_planes(&self) -> usize {
        self.out_channels * self.in_channels
    }
}

/// The computed placement of a workload onto the OPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingPlan {
    /// Kernel size class.
    pub kernel_size_class: usize,
    /// Kernel-plane slots available per pass.
    pub slots_per_pass: usize,
    /// Mapping passes needed (re-tunings of the whole array).
    pub passes: usize,
    /// Distinct kernel planes resident in the final pass.
    pub planes_last_pass: usize,
    /// Output positions evaluated in parallel each cycle.
    pub parallel_positions: usize,
    /// Compute cycles per pass.
    pub cycles_per_pass: usize,
    /// Rings programmed per pass (≤ 4000).
    pub rings_per_pass: usize,
    /// AWC tuning iterations per pass (40 rings each with the paper
    /// config).
    pub tuning_iterations_per_pass: usize,
    /// Elementwise MACs retired per cycle (the paper's `f·(n·K²)` when
    /// the array is full).
    pub macs_per_cycle: usize,
}

impl MappingPlan {
    /// Computes the placement of `workload` on `opc`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unmappable`] for unsupported kernel sizes and
    /// [`CoreError::InvalidParameter`] for degenerate workloads.
    pub fn compute(workload: &ConvWorkload, opc: &OpcConfig) -> Result<Self> {
        workload.validate()?;
        let k = KernelSize::from_k(workload.kernel)
            .map_err(|e| CoreError::Unmappable(e.to_string()))?;
        let slots_per_pass = opc.banks * k.kernels_per_bank();
        let planes = workload.kernel_planes();
        let passes = planes.div_ceil(slots_per_pass);
        let planes_last_pass = planes - (passes - 1) * slots_per_pass;
        // When planes don't fill the array, replicate them to evaluate
        // several strides in parallel (only meaningful for full passes).
        let parallel_positions = if passes == 1 {
            (slots_per_pass / planes).max(1)
        } else {
            1
        };
        let (oh, ow) = workload.output_size();
        let positions = oh * ow;
        let cycles_per_pass = positions.div_ceil(parallel_positions);
        let resident_planes = planes.min(slots_per_pass);
        let rings_per_pass = resident_planes
            * parallel_positions
                .min(slots_per_pass / resident_planes.max(1))
                .max(1)
            * k.weights();
        let rings_per_pass = rings_per_pass.min(opc.total_rings());
        Ok(Self {
            kernel_size_class: k.k(),
            slots_per_pass,
            passes,
            planes_last_pass,
            parallel_positions,
            cycles_per_pass,
            rings_per_pass,
            tuning_iterations_per_pass: opc.tuning_iterations(rings_per_pass),
            macs_per_cycle: opc.macs_per_cycle(k),
        })
    }

    /// Total compute cycles over all passes.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.passes as u64 * self.cycles_per_pass as u64
    }

    /// Total AWC tuning iterations over all passes.
    #[must_use]
    pub fn total_tuning_iterations(&self) -> u64 {
        self.passes as u64 * self.tuning_iterations_per_pass as u64
    }
}

/// Assigns kernel-plane indices to `(bank, first_arm)` slots for one
/// pass, in placement order. `plane_count` planes are placed; each takes
/// [`KernelSize::arms_per_kernel`] consecutive arms.
///
/// # Errors
///
/// Returns [`CoreError::Unmappable`] when the planes do not fit.
pub(crate) fn assign_slots(
    plane_count: usize,
    kernel: KernelSize,
    opc: &OpcConfig,
) -> Result<Vec<(usize, usize)>> {
    let per_bank = kernel.kernels_per_bank();
    let capacity = opc.banks * per_bank;
    if plane_count > capacity {
        return Err(CoreError::Unmappable(format!(
            "{plane_count} planes exceed {capacity} slots"
        )));
    }
    let arms_each = kernel.arms_per_kernel();
    Ok((0..plane_count)
        .map(|i| {
            let bank = i / per_bank;
            let slot_in_bank = i % per_bank;
            (bank, slot_in_bank * arms_each)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_opc() -> OpcConfig {
        OpcConfig::paper_default()
    }

    #[test]
    fn resnet_first_layer_plan_matches_paper_iterations() {
        // 64 × 3 = 192 7×7 planes on 80 bank slots → 3 passes; a full pass
        // programs 80 × 49 = 3920 rings → 98 iterations ≈ the paper's 100
        // (which quotes the full 4000-ring array).
        let plan =
            MappingPlan::compute(&ConvWorkload::resnet18_first_layer(), &paper_opc()).unwrap();
        assert_eq!(plan.kernel_size_class, 7);
        assert_eq!(plan.slots_per_pass, 80);
        assert_eq!(plan.passes, 3);
        assert_eq!(plan.planes_last_pass, 32);
        assert_eq!(plan.rings_per_pass, 3920);
        assert_eq!(plan.tuning_iterations_per_pass, 98);
        assert_eq!(plan.macs_per_cycle, 3920);
        // Full-array map = exactly 100 iterations.
        assert_eq!(paper_opc().tuning_iterations(4000), 100);
    }

    #[test]
    fn small_3x3_workload_replicates_positions() {
        let w = ConvWorkload {
            out_channels: 8,
            in_channels: 1,
            kernel: 3,
            input_h: 16,
            input_w: 16,
            stride: 1,
        };
        let plan = MappingPlan::compute(&w, &paper_opc()).unwrap();
        assert_eq!(plan.slots_per_pass, 400);
        assert_eq!(plan.passes, 1);
        // 400 slots / 8 planes = 50 positions in parallel.
        assert_eq!(plan.parallel_positions, 50);
        // 14×14 = 196 positions / 50 → 4 cycles.
        assert_eq!(plan.cycles_per_pass, 4);
    }

    #[test]
    fn oversubscribed_3x3_needs_passes() {
        let w = ConvWorkload {
            out_channels: 256,
            in_channels: 3,
            kernel: 3,
            input_h: 32,
            input_w: 32,
            stride: 1,
        };
        let plan = MappingPlan::compute(&w, &paper_opc()).unwrap();
        // 768 planes / 400 slots = 2 passes.
        assert_eq!(plan.passes, 2);
        assert_eq!(plan.planes_last_pass, 368);
        assert_eq!(plan.parallel_positions, 1);
        assert_eq!(plan.total_cycles(), 2 * 30 * 30);
    }

    #[test]
    fn five_by_five_uses_bank_slots() {
        let w = ConvWorkload {
            out_channels: 16,
            in_channels: 1,
            kernel: 5,
            input_h: 32,
            input_w: 32,
            stride: 1,
        };
        let plan = MappingPlan::compute(&w, &paper_opc()).unwrap();
        assert_eq!(plan.slots_per_pass, 80);
        assert_eq!(plan.passes, 1);
        assert_eq!(plan.parallel_positions, 5);
        assert_eq!(plan.macs_per_cycle, 2000);
    }

    #[test]
    fn unsupported_kernel_rejected() {
        let w = ConvWorkload {
            out_channels: 1,
            in_channels: 1,
            kernel: 4,
            input_h: 16,
            input_w: 16,
            stride: 1,
        };
        assert!(matches!(
            MappingPlan::compute(&w, &paper_opc()),
            Err(CoreError::Unmappable(_))
        ));
    }

    #[test]
    fn degenerate_workloads_rejected() {
        let mut w = ConvWorkload::resnet18_first_layer();
        w.out_channels = 0;
        assert!(MappingPlan::compute(&w, &paper_opc()).is_err());
        let mut w = ConvWorkload::resnet18_first_layer();
        w.input_h = 3;
        assert!(MappingPlan::compute(&w, &paper_opc()).is_err());
    }

    #[test]
    fn output_size_and_kernel_planes() {
        let w = ConvWorkload::resnet18_first_layer();
        assert_eq!(w.output_size(), (61, 61));
        assert_eq!(w.kernel_planes(), 64 * 3);
    }

    #[test]
    fn slot_assignment_3x3() {
        let slots = assign_slots(12, KernelSize::K3, &paper_opc()).unwrap();
        assert_eq!(slots.len(), 12);
        // Five planes per bank, one arm each.
        assert_eq!(slots[0], (0, 0));
        assert_eq!(slots[4], (0, 4));
        assert_eq!(slots[5], (1, 0));
        assert_eq!(slots[11], (2, 1));
    }

    #[test]
    fn slot_assignment_7x7_uses_whole_banks() {
        let slots = assign_slots(3, KernelSize::K7, &paper_opc()).unwrap();
        assert_eq!(slots, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn slot_assignment_capacity_checked() {
        assert!(assign_slots(401, KernelSize::K3, &paper_opc()).is_err());
        assert!(assign_slots(81, KernelSize::K7, &paper_opc()).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every mappable workload's plan covers all kernel planes:
            /// full passes hold `slots_per_pass`, the final pass the rest.
            #[test]
            fn plan_covers_all_planes(
                out_channels in 1usize..300,
                in_channels in 1usize..4,
                k_idx in 0usize..3,
                side in 8usize..64,
            ) {
                let kernel = [3usize, 5, 7][k_idx];
                prop_assume!(side >= kernel);
                let w = ConvWorkload {
                    out_channels,
                    in_channels,
                    kernel,
                    input_h: side,
                    input_w: side,
                    stride: 1,
                };
                let plan = MappingPlan::compute(&w, &paper_opc()).unwrap();
                let covered =
                    (plan.passes - 1) * plan.slots_per_pass + plan.planes_last_pass;
                prop_assert_eq!(covered, w.kernel_planes());
                prop_assert!(plan.planes_last_pass <= plan.slots_per_pass);
                prop_assert!(plan.planes_last_pass >= 1);
            }

            /// Cycles per pass cover every output position given the
            /// replication factor.
            #[test]
            fn cycles_cover_positions(
                out_channels in 1usize..64,
                side in 9usize..48,
            ) {
                let w = ConvWorkload {
                    out_channels,
                    in_channels: 1,
                    kernel: 3,
                    input_h: side,
                    input_w: side,
                    stride: 1,
                };
                let plan = MappingPlan::compute(&w, &paper_opc()).unwrap();
                let (oh, ow) = w.output_size();
                prop_assert!(
                    plan.cycles_per_pass * plan.parallel_positions >= oh * ow
                );
                // No over-provisioning beyond one cycle's worth.
                prop_assert!(
                    (plan.cycles_per_pass - 1) * plan.parallel_positions < oh * ow
                );
            }

            /// Slot assignments never collide and never exceed the bank
            /// count.
            #[test]
            fn slot_assignments_disjoint(
                planes in 1usize..=80,
                k_idx in 0usize..3,
            ) {
                let kernel = [KernelSize::K3, KernelSize::K5, KernelSize::K7][k_idx];
                let slots = assign_slots(planes, kernel, &paper_opc()).unwrap();
                let mut seen = std::collections::HashSet::new();
                for &(bank, arm) in &slots {
                    prop_assert!(bank < 80);
                    prop_assert!(arm < 5);
                    prop_assert!(seen.insert((bank, arm)), "slot collision");
                }
                // Multi-arm kernels must not overlap each other's arms.
                let arms_each = kernel.arms_per_kernel();
                for &(_bank, first_arm) in &slots {
                    prop_assert!(first_arm + arms_each <= 5);
                }
            }

            /// Tuning iterations are exactly ⌈rings / awc_units⌉ for any
            /// ring count.
            #[test]
            fn tuning_iteration_formula(rings in 0usize..8000) {
                let opc = paper_opc();
                prop_assert_eq!(
                    opc.tuning_iterations(rings),
                    rings.div_ceil(40)
                );
            }
        }
    }
}
