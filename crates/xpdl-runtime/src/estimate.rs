//! Cost-estimation queries over the runtime model.
//!
//! §IV names these as the queries the EXCESS optimization layers need:
//! "whether a specific type of processor is available …, or what the
//! expected communication time or the energy cost to use an accelerator
//! is". Availability is covered by the analysis getters; this module
//! implements the cost side, straight from the interconnect/channel
//! attributes of the composed model (Listing 3's cost model:
//! `time = offset + bytes/bandwidth`, `energy = offset + bytes ·
//! energy_per_byte`).

use crate::model::{NodeRef, RuntimeModel};

/// An estimated transfer cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferEstimate {
    /// Expected time, seconds.
    pub time_s: f64,
    /// Expected energy, joules (0 when the model gives no energy data).
    pub energy_j: f64,
    /// The bandwidth used (effective if the analysis annotated one).
    pub bandwidth_bps: f64,
}

/// Estimate moving `bytes` over the interconnect with identifier `ident`.
///
/// Bandwidth preference order: the elaborated `effective_bandwidth`
/// annotation (bandwidth-downgrade analysis), then the interconnect's own
/// `max_bandwidth`, then the fastest channel. Per-message offsets and
/// per-byte energy come from the channels where present; `?` placeholders
/// (not yet microbenchmarked) contribute zero and are reported via
/// [`TransferEstimate::energy_j`] being zero.
pub fn estimate_transfer(
    model: &RuntimeModel,
    ident: &str,
    bytes: u64,
) -> Option<TransferEstimate> {
    Some(LinkCosts::of(model, ident)?.transfer(bytes))
}

/// An interconnect's cost parameters, read once and applied to any
/// number of transfer sizes.
struct LinkCosts<'m> {
    link: NodeRef<'m>,
    bandwidth: f64,
    time_offset: f64,
    energy_offset: f64,
    energy_per_byte: f64,
}

impl<'m> LinkCosts<'m> {
    fn of(model: &'m RuntimeModel, ident: &str) -> Option<LinkCosts<'m>> {
        let link = model.find(ident)?;
        if link.kind() != "interconnect" {
            return None;
        }
        let channels = || link.children().filter(|c| c.kind() == "channel");
        let bandwidth = link
            .quantity("effective_bandwidth")
            .or_else(|| link.quantity("max_bandwidth"))
            .map(|q| q.to_base())
            .or_else(|| {
                channels()
                    .filter_map(|c| c.quantity("max_bandwidth").map(|q| q.to_base()))
                    .fold(None, |acc: Option<f64>, b| Some(acc.map_or(b, |a| a.max(b))))
            })?;
        if bandwidth <= 0.0 {
            return None;
        }
        // Each cost is the largest value any channel gives (0 when none
        // does), folded over the channels in document order in one walk.
        let metrics = ["time_offset_per_message", "energy_offset_per_message", "energy_per_byte"];
        let mut costs = [0.0f64; 3];
        for c in channels() {
            for (cost, metric) in costs.iter_mut().zip(metrics) {
                if let Some(q) = c.quantity(metric) {
                    *cost = cost.max(q.to_base());
                }
            }
        }
        let [time_offset, energy_offset, energy_per_byte] = costs;
        Some(LinkCosts { link, bandwidth, time_offset, energy_offset, energy_per_byte })
    }

    fn transfer(&self, bytes: u64) -> TransferEstimate {
        let time = self.time_offset + bytes as f64 / self.bandwidth;
        let energy = self.energy_offset + bytes as f64 * self.energy_per_byte;
        TransferEstimate { time_s: time, energy_j: energy, bandwidth_bps: self.bandwidth }
    }
}

/// Expected energy cost of *using an accelerator* for a task: ship
/// `upload_bytes` to it, let it compute for `compute_s` drawing its
/// in-line `static_power` (plus the given dynamic power), ship
/// `download_bytes` back over the same link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorEstimate {
    /// Total expected time, seconds.
    pub time_s: f64,
    /// Total expected energy, joules.
    pub energy_j: f64,
}

/// See [`AcceleratorEstimate`]. `link_ident` names the interconnect whose
/// `tail` is the accelerator (Listing 7's `connection1`).
pub fn estimate_accelerator_use(
    model: &RuntimeModel,
    link_ident: &str,
    upload_bytes: u64,
    download_bytes: u64,
    compute_s: f64,
    dynamic_power_w: f64,
) -> Option<AcceleratorEstimate> {
    let costs = LinkCosts::of(model, link_ident)?;
    let up = costs.transfer(upload_bytes);
    let down = costs.transfer(download_bytes);
    let device = costs.link.attr("tail").and_then(|t| model.find(t))?;
    let compute_j = (device.subtree_static_power_w() + dynamic_power_w) * compute_s;
    Some(AcceleratorEstimate {
        time_s: up.time_s + compute_s + down.time_s,
        energy_j: up.energy_j + compute_j + down.energy_j,
    })
}

/// Static energy of the whole platform over a duration — the base cost the
/// hierarchical model of §III-D attributes to the node.
pub fn estimate_static_energy(model: &RuntimeModel, duration_s: f64) -> f64 {
    model.total_static_power_w() * duration_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    fn model() -> RuntimeModel {
        let doc = XpdlDocument::parse_str(
            r#"<system id="s">
                 <cpu id="h" static_power="15" static_power_unit="W"/>
                 <device id="g" static_power="8" static_power_unit="W"/>
                 <interconnects>
                   <interconnect id="link" head="h" tail="g"
                                 effective_bandwidth="1000000000" effective_bandwidth_unit="B/s">
                     <channel name="up" max_bandwidth="2" max_bandwidth_unit="GB/s"
                              time_offset_per_message="10" time_offset_per_message_unit="us"
                              energy_per_byte="8" energy_per_byte_unit="pJ"
                              energy_offset_per_message="2" energy_offset_per_message_unit="nJ"/>
                   </interconnect>
                 </interconnects>
               </system>"#,
        )
        .unwrap();
        RuntimeModel::from_element(doc.root())
    }

    #[test]
    fn transfer_uses_effective_bandwidth_and_channel_costs() {
        let m = model();
        let e = estimate_transfer(&m, "link", 1_000_000).unwrap();
        assert_eq!(e.bandwidth_bps, 1e9, "effective beats channel max");
        assert!((e.time_s - (10e-6 + 1e-3)).abs() < 1e-12);
        assert!((e.energy_j - (2e-9 + 1_000_000.0 * 8e-12)).abs() < 1e-15);
    }

    #[test]
    fn transfer_falls_back_to_channel_bandwidth() {
        let doc = XpdlDocument::parse_str(
            r#"<interconnect id="l"><channel name="c" max_bandwidth="4" max_bandwidth_unit="GB/s"/></interconnect>"#,
        )
        .unwrap();
        let m = RuntimeModel::from_element(doc.root());
        let e = estimate_transfer(&m, "l", 4_000_000_000).unwrap();
        assert_eq!(e.bandwidth_bps, 4e9);
        assert!((e.time_s - 1.0).abs() < 1e-12);
        assert_eq!(e.energy_j, 0.0, "no energy data in the model");
    }

    #[test]
    fn unknown_or_wrong_kind_rejected() {
        let m = model();
        assert!(estimate_transfer(&m, "nope", 1).is_none());
        assert!(estimate_transfer(&m, "h", 1).is_none());
        let doc = XpdlDocument::parse_str(r#"<interconnect id="bare"/>"#).unwrap();
        let bare = RuntimeModel::from_element(doc.root());
        assert!(estimate_transfer(&bare, "bare", 1).is_none());
    }

    #[test]
    fn accelerator_use_accounts_all_phases() {
        let m = model();
        let est = estimate_accelerator_use(&m, "link", 1_000_000, 1_000, 0.5, 12.0).unwrap();
        // compute: (8 W static on device + 12 W dynamic) × 0.5 s = 10 J.
        assert!(est.energy_j > 10.0 && est.energy_j < 10.1, "{est:?}");
        assert!(est.time_s > 0.5);
    }

    #[test]
    fn static_energy_scales_linearly() {
        let m = model();
        assert_eq!(estimate_static_energy(&m, 2.0), 2.0 * 23.0);
        assert_eq!(estimate_static_energy(&m, 0.0), 0.0);
    }

    /// Bit patterns of the library answers for 1 MiB up, 64 KiB down,
    /// 0.01 s of compute at 50 W: any change to the float expressions or
    /// their order moves them.
    #[test]
    fn library_accelerator_answers_pinned() {
        let cases = [
            ("liu_gpu_server", "connection1", 0x3f84d58bf258bf25u64, 0x3fe28f6eda08dbd0u64, None),
            ("XScluster", "conn3", 0x3f84d1d3f2b0e20b, 0x3ff020d2a0743645, Some(0x4069666666666664u64)),
            ("myriad_server", "connect4", 0x3fd2773e24febd0a, 0x3fe01cac083126ea, Some(0x403059999999999a)),
        ];
        for (key, link, time_bits, energy_bits, total_bits) in cases {
            let elaborated = xpdl_models::loader::elaborate_system(key).unwrap();
            let m = RuntimeModel::from_element(&elaborated.root);
            let est = estimate_accelerator_use(&m, link, 1 << 20, 64 << 10, 0.01, 50.0).unwrap();
            assert_eq!(est.time_s.to_bits(), time_bits, "{key} time {est:?}");
            assert_eq!(est.energy_j.to_bits(), energy_bits, "{key} energy {est:?}");
            if let Some(bits) = total_bits {
                assert_eq!(m.total_static_power_w().to_bits(), bits, "{key} total");
            }
        }
    }

    #[test]
    fn library_gpu_server_accelerator_query() {
        let model = {
            let repo = xpdl_repo::Repository::new().with_store({
                let mut s = xpdl_repo::MemoryStore::new();
                for (k, v) in xpdl_models::library::LIBRARY {
                    s.insert(*k, *v);
                }
                s
            });
            let set = repo.resolve_recursive("liu_gpu_server").unwrap();
            xpdl_elab::elaborate(&set).unwrap()
        };
        let rt = RuntimeModel::from_element(&model.root);
        let mib = 1024 * 1024;
        let e = estimate_transfer(&rt, "connection1", 64 * mib).unwrap();
        // 6 GiB/s effective → 64 MiB ≈ 10.4 ms; 8 pJ/B → ≈ 0.54 mJ.
        assert!((e.time_s - 64.0 / (6.0 * 1024.0)).abs() < 1e-3, "{e:?}");
        assert!((e.energy_j - 64.0 * mib as f64 * 8e-12).abs() < 1e-6, "{e:?}");
    }
}
