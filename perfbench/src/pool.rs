//! The seeded request pool and its reference replies.
//!
//! The pool holds every method of the query mix in exact proportion to
//! its weight, so its cost does not depend on the seed: per unit `u` (the
//! number of element kinds in the model) it has `u` `elements_of_kind`
//! requests, one per kind, and the other methods by weight. The seed draws
//! identifiers, attributes, links and sizes from the model, and the order.
//!
//! Expected replies come from the `XpdlHandle` tree walk and
//! `xpdl_runtime::estimate` over the model as built, never from the
//! serving engine, its compiled plans or the wire codecs.

use crate::rng::Rng;
use std::collections::BTreeSet;
use xpdl_runtime::{estimate, XpdlHandle};
use xpdl_serve::protocol::{AccelInfo, NodeInfo, TransferInfo};
use xpdl_serve::{Method, Reply, Response};

/// The query mix: `(weight in percent, method name)`. `find` includes
/// 10% identifiers that miss; `elements_of_kind` covers every kind once.
pub const MIX: &[(usize, &str)] = &[
    (10, "num_cores"),
    (5, "num_cuda_devices"),
    (5, "total_static_power"),
    (5, "model_info"),
    (20, "find"),
    (20, "get_attr"),
    (10, "get_number"),
    (5, "has_installed"),
    (5, "estimate_transfer"),
    (5, "estimate_accelerator_use"),
    (5, "estimate_static_energy"),
    (5, "elements_of_kind"),
];

/// What the serving engine must answer for one model variant.
#[derive(Debug, Clone)]
pub struct Variant {
    /// The model, loaded independently of the engine.
    pub handle: XpdlHandle,
    /// Source description the engine reports (`file:<path>`).
    pub source: String,
    /// FNV-1a of the model file's bytes.
    pub fingerprint: u64,
}

/// A seeded request pool with the accepted replies for each request.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The requests, in the order clients issue them.
    pub methods: Vec<Method>,
    /// For each request, one accepted reply per model variant.
    expected: Vec<Vec<Reply>>,
}

impl Pool {
    /// Draw a pool from the first variant's model and compute the reply
    /// every variant must give. A request is answered correctly when the
    /// reply equals any variant's (the model may be swapped mid-run).
    pub fn generate(seed: u64, variants: &[Variant]) -> Pool {
        let h = &variants[0].handle;
        let m = h.model();
        let mut rng = Rng::stream(seed, "pool");
        let all: Vec<_> = (0..m.len() as u32).filter_map(|i| m.node_at(i)).collect();
        let kinds: BTreeSet<&str> = all.iter().map(|n| n.kind()).collect();
        let idents: Vec<&str> = {
            let set: BTreeSet<&str> = all.iter().filter_map(|n| n.ident()).collect();
            set.into_iter().collect()
        };
        let attrs: Vec<(&str, &str)> = all
            .iter()
            .filter_map(|n| n.ident().map(|id| (id, n)))
            .flat_map(|(id, n)| n.attrs().map(move |(k, _)| (id, k)))
            .collect();
        let numbers: Vec<(&str, &str)> = all
            .iter()
            .filter_map(|n| n.ident().map(|id| (id, n)))
            .flat_map(|(id, n)| {
                n.attrs()
                    .filter(|(_, v)| v.trim().parse::<f64>().is_ok_and(f64::is_finite))
                    .map(move |(k, _)| (id, k))
            })
            .collect();
        let links: Vec<&str> = all
            .iter()
            .filter(|n| n.kind() == "interconnect")
            .filter_map(|n| n.ident())
            .collect();
        let installed: Vec<&str> = all
            .iter()
            .filter(|n| n.kind() == "installed")
            .filter_map(|n| n.type_ref())
            .collect();

        let unit = kinds.len();
        let mut methods = Vec::with_capacity(20 * unit);
        let mut kind_deck = kinds.iter();
        for &(weight, name) in MIX {
            let count = weight * unit / 5;
            for i in 0..count {
                methods.push(match name {
                    "num_cores" => Method::NumCores,
                    "num_cuda_devices" => Method::NumCudaDevices,
                    "total_static_power" => Method::TotalStaticPower,
                    "model_info" => Method::ModelInfo,
                    "find" if i * 10 < count => Method::Find {
                        ident: format!("perfbench_missing_{i}"),
                    },
                    "find" => Method::Find {
                        ident: pick(&mut rng, &idents, "perfbench_none").to_string(),
                    },
                    "get_attr" => {
                        let (ident, attr) = pick(&mut rng, &attrs, ("perfbench_none", "id"));
                        Method::GetAttr {
                            ident: ident.to_string(),
                            attr: attr.to_string(),
                        }
                    }
                    "get_number" => {
                        let (ident, attr) = pick(&mut rng, &numbers, ("perfbench_none", "size"));
                        Method::GetNumber {
                            ident: ident.to_string(),
                            attr: attr.to_string(),
                        }
                    }
                    "has_installed" if i % 5 == 4 => Method::HasInstalled {
                        prefix: "perfbench_absent".into(),
                    },
                    "has_installed" => {
                        let t = pick(&mut rng, &installed, "perfbench_absent");
                        let cut = 1 + rng.below(t.len());
                        let cut = (cut..=t.len())
                            .find(|&c| t.is_char_boundary(c))
                            .unwrap_or(t.len());
                        Method::HasInstalled {
                            prefix: t[..cut].to_string(),
                        }
                    }
                    "estimate_transfer" => Method::EstimateTransfer {
                        link: pick(&mut rng, &links, "perfbench_no_link").to_string(),
                        bytes: 1 << (10 + rng.below(21)),
                    },
                    "estimate_accelerator_use" => Method::EstimateAcceleratorUse {
                        link: pick(&mut rng, &links, "perfbench_no_link").to_string(),
                        upload_bytes: 1 << (10 + rng.below(21)),
                        download_bytes: 1 << (10 + rng.below(21)),
                        compute_s: 0.001 + rng.unit() * 0.1,
                        dynamic_power_w: 20.0 + rng.unit() * 200.0,
                    },
                    "estimate_static_energy" => Method::EstimateStaticEnergy {
                        duration_s: 0.001 + rng.unit() * 10.0,
                    },
                    "elements_of_kind" => Method::ElementsOfKind {
                        kind: kind_deck.next().expect("one request per kind").to_string(),
                    },
                    other => unreachable!("method {other} is not in the mix"),
                });
            }
        }
        rng.shuffle(&mut methods);
        let expected = methods
            .iter()
            .map(|m| variants.iter().map(|v| reference(v, m)).collect())
            .collect();
        Pool { methods, expected }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Check the response to request `idx`, sent with correlation id `id`.
    /// A `model_info` reply may carry any epoch: reloads advance it.
    pub fn check(&self, idx: usize, id: u64, resp: &Response) -> Result<(), String> {
        if resp.id != id {
            return Err(format!("reply id {} for request id {id}", resp.id));
        }
        let got = match &resp.result {
            Ok(r) => r,
            Err(e) => {
                return Err(format!(
                    "request {idx} ({}): {e:?}",
                    self.methods[idx].name()
                ))
            }
        };
        let matches = |want: &Reply| match (want, got) {
            (Reply::ModelInfo { epoch: _, .. }, Reply::ModelInfo { epoch, .. }) => {
                let mut want = want.clone();
                if let Reply::ModelInfo { epoch: e, .. } = &mut want {
                    *e = *epoch;
                }
                &want == got
            }
            _ => want == got,
        };
        if self.expected[idx].iter().any(matches) {
            Ok(())
        } else {
            Err(format!(
                "request {idx} ({}): got {got:?}, expected {:?}",
                self.methods[idx].name(),
                self.expected[idx][0]
            ))
        }
    }
}

fn pick<T: Copy>(rng: &mut Rng, from: &[T], fallback: T) -> T {
    if from.is_empty() {
        fallback
    } else {
        from[rng.below(from.len())]
    }
}

/// The reply `method` must get from a server holding `v`'s model at
/// epoch 0, computed by the tree walk.
fn reference(v: &Variant, method: &Method) -> Reply {
    let h = &v.handle;
    let m = h.model();
    match method {
        Method::NumCores => Reply::Count(h.num_cores() as u64),
        Method::NumCudaDevices => Reply::Count(h.num_cuda_devices() as u64),
        Method::TotalStaticPower => Reply::Power(h.total_static_power_w()),
        Method::ModelInfo => Reply::ModelInfo {
            epoch: 0,
            nodes: m.len() as u64,
            root_kind: h.root().kind().to_string(),
            root_ident: h.root().ident().map(str::to_string),
            source: v.source.clone(),
            fingerprint: format!("{:016x}", v.fingerprint),
        },
        Method::Find { ident } => Reply::Node(h.find(ident).map(|n| {
            NodeInfo {
                kind: n.kind().to_string(),
                ident: n.ident().map(str::to_string),
                type_ref: n.type_ref().map(str::to_string),
                attrs: n
                    .attrs()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            }
        })),
        Method::GetAttr { ident, attr } => Reply::Attr(h.get_attr(ident, attr).map(str::to_string)),
        // The wire carries a non-finite number as absent.
        Method::GetNumber { ident, attr } => {
            Reply::Number(h.get_number(ident, attr).filter(|x| x.is_finite()))
        }
        Method::ElementsOfKind { kind } => {
            let nodes = h.elements_of_kind(kind);
            Reply::Idents {
                idents: nodes
                    .iter()
                    .filter_map(|n| n.ident())
                    .map(str::to_string)
                    .collect(),
                count: nodes.len() as u64,
            }
        }
        Method::HasInstalled { prefix } => {
            Reply::Flag(h.has_installed(|t| t.starts_with(prefix.as_str())))
        }
        Method::EstimateTransfer { link, bytes } => Reply::Transfer(
            estimate::estimate_transfer(m, link, *bytes).map(|e| TransferInfo {
                time_s: e.time_s,
                energy_j: e.energy_j,
                bandwidth_bps: e.bandwidth_bps,
            }),
        ),
        Method::EstimateAcceleratorUse {
            link,
            upload_bytes,
            download_bytes,
            compute_s,
            dynamic_power_w,
        } => Reply::Accelerator(
            estimate::estimate_accelerator_use(
                m,
                link,
                *upload_bytes,
                *download_bytes,
                *compute_s,
                *dynamic_power_w,
            )
            .map(|e| AccelInfo {
                time_s: e.time_s,
                energy_j: e.energy_j,
            }),
        ),
        Method::EstimateStaticEnergy { duration_s } => {
            Reply::Energy(estimate::estimate_static_energy(m, *duration_s))
        }
        other => unreachable!("{} is not in the query mix", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_runtime::RuntimeModel;

    fn paper_model() -> Variant {
        let e = xpdl_models::loader::elaborate_system("liu_gpu_server")
            .expect("paper model elaborates");
        let m = RuntimeModel::from_element(&e.root);
        let fingerprint = crate::rng::fnv1a(&xpdl_runtime::format::encode(&m));
        Variant {
            handle: XpdlHandle::from_model(m),
            source: "file:m.xpdlrt".into(),
            fingerprint,
        }
    }

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let v = [paper_model()];
        let show = |seed| format!("{:?}", Pool::generate(seed, &v).methods);
        assert_eq!(show(42), show(42));
        assert_ne!(show(42), show(43));
    }

    #[test]
    fn pool_holds_the_mix_in_exact_proportion() {
        let pool = Pool::generate(7, &[paper_model()]);
        let unit = pool.len() / 20;
        assert_eq!(pool.len(), 20 * unit);
        for &(weight, name) in MIX {
            let n = pool.methods.iter().filter(|m| m.name() == name).count();
            assert_eq!(n, weight * unit / 5, "{name}");
        }
        let kinds: BTreeSet<String> = pool
            .methods
            .iter()
            .filter_map(|m| match m {
                Method::ElementsOfKind { kind } => Some(kind.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(kinds.len(), unit, "every kind exactly once");
    }

    #[test]
    fn reference_replies_pass_and_wrong_replies_fail() {
        let v = paper_model();
        let pool = Pool::generate(1, std::slice::from_ref(&v));
        for (i, m) in pool.methods.iter().enumerate() {
            assert_eq!(pool.check(i, 9, &Response::ok(9, reference(&v, m))), Ok(()));
        }
        let i = pool
            .methods
            .iter()
            .position(|m| *m == Method::NumCores)
            .unwrap();
        let cores = v.handle.num_cores() as u64;
        assert!(pool
            .check(i, 9, &Response::ok(9, Reply::Count(cores + 1)))
            .is_err());
        assert!(
            pool.check(i, 9, &Response::ok(8, Reply::Count(cores)))
                .is_err(),
            "wrong id"
        );
        let err = xpdl_serve::ServeError::new(xpdl_serve::codes::OVERLOADED, "shed");
        assert!(
            pool.check(i, 9, &Response::err(9, err)).is_err(),
            "error reply"
        );
    }

    #[test]
    fn model_info_accepts_any_epoch_but_not_another_model() {
        let v = paper_model();
        let pool = Pool::generate(3, std::slice::from_ref(&v));
        let i = pool
            .methods
            .iter()
            .position(|m| *m == Method::ModelInfo)
            .unwrap();
        let Reply::ModelInfo {
            nodes,
            root_kind,
            root_ident,
            source,
            fingerprint,
            ..
        } = reference(&v, &Method::ModelInfo)
        else {
            unreachable!()
        };
        let info = |epoch, fingerprint: &str| Reply::ModelInfo {
            epoch,
            nodes,
            root_kind: root_kind.clone(),
            root_ident: root_ident.clone(),
            source: source.clone(),
            fingerprint: fingerprint.to_string(),
        };
        assert_eq!(
            pool.check(i, 1, &Response::ok(1, info(17, &fingerprint))),
            Ok(())
        );
        assert!(pool
            .check(i, 1, &Response::ok(1, info(17, "0000000000000000")))
            .is_err());
    }
}
