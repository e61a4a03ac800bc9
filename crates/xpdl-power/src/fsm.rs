//! Power state machines (Listing 13).

use std::collections::BTreeMap;
use std::fmt;
use xpdl_core::{ElementKind, XpdlElement};

/// One power state (an abstracted DVFS P-state or sleep C-state).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerState {
    /// State name (`P1`, `C3`, …).
    pub name: String,
    /// Core frequency in Hz (0 for sleep states).
    pub frequency_hz: f64,
    /// Power draw in W while in this state.
    pub power_w: f64,
}

/// One allowed transition between power states.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source state name.
    pub head: String,
    /// Destination state name.
    pub tail: String,
    /// Switching time in seconds.
    pub time_s: f64,
    /// Switching energy in joules.
    pub energy_j: f64,
}

/// Errors building or using a power state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum FsmError {
    /// A transition references an undeclared state.
    UnknownState {
        /// The bad state name.
        state: String,
        /// Whether it was a head or tail.
        role: &'static str,
    },
    /// Two states share a name.
    DuplicateState(String),
    /// The machine has no states.
    Empty,
    /// No path between two states — the paper requires the machine to
    /// "model all possible transitions the programmer can initiate".
    Unreachable {
        /// Start state.
        from: String,
        /// Goal state.
        to: String,
    },
    /// A numeric field failed to parse or is not finite.
    BadElement(String),
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::UnknownState { state, role } => {
                write!(f, "transition {role} references unknown state '{state}'")
            }
            FsmError::DuplicateState(s) => write!(f, "duplicate power state '{s}'"),
            FsmError::Empty => write!(f, "power state machine has no states"),
            FsmError::Unreachable { from, to } => {
                write!(f, "no transition path from '{from}' to '{to}'")
            }
            FsmError::BadElement(m) => write!(f, "malformed power state machine: {m}"),
        }
    }
}

impl std::error::Error for FsmError {}

/// A validated power state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerStateMachine {
    /// Machine name.
    pub name: String,
    /// The power domain it governs (Listing 13 `power_domain=` attribute).
    pub domain: Option<String>,
    /// States in declaration order.
    pub states: Vec<PowerState>,
    /// Declared transitions.
    pub transitions: Vec<Transition>,
}

/// The cost of moving between two states (possibly via intermediates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionCost {
    /// Total switching time in seconds.
    pub time_s: f64,
    /// Total switching energy in joules.
    pub energy_j: f64,
    /// Number of hops taken.
    pub hops: usize,
}

impl PowerStateMachine {
    /// Build from an XPDL `power_state_machine` element.
    pub fn from_element(e: &XpdlElement) -> Result<PowerStateMachine, FsmError> {
        if e.kind != ElementKind::PowerStateMachine {
            return Err(FsmError::BadElement(format!(
                "expected <power_state_machine>, got <{}>",
                e.kind.tag()
            )));
        }
        let name = e.ident().unwrap_or("power_state_machine").to_string();
        let domain = e.attr("power_domain").map(str::to_string);
        let mut states = Vec::new();
        for ps_container in e.children_of_kind(ElementKind::PowerStates) {
            for ps in ps_container.children_of_kind(ElementKind::PowerState) {
                let state_name = ps
                    .ident()
                    .ok_or_else(|| FsmError::BadElement("power_state without name".into()))?
                    .to_string();
                if states.iter().any(|s: &PowerState| s.name == state_name) {
                    return Err(FsmError::DuplicateState(state_name));
                }
                let frequency_hz = metric(ps, "frequency")?;
                let power_w = metric(ps, "power")?;
                states.push(PowerState { name: state_name, frequency_hz, power_w });
            }
        }
        let mut transitions = Vec::new();
        for tr_container in e.children_of_kind(ElementKind::Transitions) {
            for tr in tr_container.children_of_kind(ElementKind::Transition) {
                let head = tr
                    .attr("head")
                    .ok_or_else(|| FsmError::BadElement("transition without head".into()))?
                    .to_string();
                let tail = tr
                    .attr("tail")
                    .ok_or_else(|| FsmError::BadElement("transition without tail".into()))?
                    .to_string();
                transitions.push(Transition {
                    head,
                    tail,
                    time_s: metric(tr, "time")?,
                    energy_j: metric(tr, "energy")?,
                });
            }
        }
        let fsm = PowerStateMachine { name, domain, states, transitions };
        fsm.validate()?;
        Ok(fsm)
    }

    /// Structural validation: non-empty, transitions reference known states.
    pub fn validate(&self) -> Result<(), FsmError> {
        if self.states.is_empty() {
            return Err(FsmError::Empty);
        }
        for t in &self.transitions {
            if self.state(&t.head).is_none() {
                return Err(FsmError::UnknownState { state: t.head.clone(), role: "head" });
            }
            if self.state(&t.tail).is_none() {
                return Err(FsmError::UnknownState { state: t.tail.clone(), role: "tail" });
            }
        }
        Ok(())
    }

    /// Check the paper's completeness requirement: every ordered state pair
    /// must be connected by some transition path.
    pub fn check_complete(&self) -> Result<(), FsmError> {
        for a in &self.states {
            for b in &self.states {
                if a.name != b.name && self.transition_cost(&a.name, &b.name).is_none() {
                    return Err(FsmError::Unreachable {
                        from: a.name.clone(),
                        to: b.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Look up a state by name.
    pub fn state(&self, name: &str) -> Option<&PowerState> {
        self.states.iter().find(|s| s.name == name)
    }

    /// The state with the highest frequency.
    pub fn fastest(&self) -> Option<&PowerState> {
        self.states.iter().max_by(|a, b| a.frequency_hz.total_cmp(&b.frequency_hz))
    }

    /// The state with the lowest power.
    pub fn most_frugal(&self) -> Option<&PowerState> {
        self.states.iter().min_by(|a, b| a.power_w.total_cmp(&b.power_w))
    }

    /// Cheapest-energy transition cost from `from` to `to` (Dijkstra over
    /// the declared transitions; multi-hop switches accumulate both time
    /// and energy). Staying put costs nothing.
    pub fn transition_cost(&self, from: &str, to: &str) -> Option<TransitionCost> {
        if from == to {
            return (self.state(from).is_some())
                .then_some(TransitionCost { time_s: 0.0, energy_j: 0.0, hops: 0 });
        }
        self.state(from)?;
        self.state(to)?;
        // Dijkstra keyed by energy; ties don't matter for correctness.
        let mut best: BTreeMap<&str, TransitionCost> = BTreeMap::new();
        best.insert(from, TransitionCost { time_s: 0.0, energy_j: 0.0, hops: 0 });
        let mut frontier: Vec<&str> = vec![from];
        let mut settled: Vec<&str> = Vec::new();
        while let Some(&u) = frontier
            .iter()
            .filter(|s| !settled.contains(*s))
            .min_by(|a, b| best[**a].energy_j.total_cmp(&best[**b].energy_j))
        {
            settled.push(u);
            if u == to {
                break;
            }
            let u_cost = best[u];
            for t in self.transitions.iter().filter(|t| t.head == u) {
                let cand = TransitionCost {
                    time_s: u_cost.time_s + t.time_s,
                    energy_j: u_cost.energy_j + t.energy_j,
                    hops: u_cost.hops + 1,
                };
                let entry = best.get(t.tail.as_str());
                if entry.is_none_or(|e| cand.energy_j < e.energy_j) {
                    best.insert(t.tail.as_str(), cand);
                    frontier.push(self.state(&t.tail).map(|s| s.name.as_str())?);
                }
            }
        }
        best.get(to).copied()
    }
}

fn metric(e: &XpdlElement, name: &str) -> Result<f64, FsmError> {
    Ok(crate::finite_metric(e, name).map_err(FsmError::BadElement)?.unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    /// Listing 13: three P-states with a transition ring P3→P2→P1→P3.
    fn listing13() -> PowerStateMachine {
        let doc = XpdlDocument::parse_str(
            r#"<power_state_machine name="power_state_machine1" power_domain="xyCPU_core_pd">
                 <power_states>
                   <power_state name="P1" frequency="1.2" frequency_unit="GHz" power="20" power_unit="W"/>
                   <power_state name="P2" frequency="1.6" frequency_unit="GHz" power="28" power_unit="W"/>
                   <power_state name="P3" frequency="2.0" frequency_unit="GHz" power="40" power_unit="W"/>
                 </power_states>
                 <transitions>
                   <transition head="P2" tail="P1" time="1" time_unit="us" energy="2" energy_unit="nJ"/>
                   <transition head="P3" tail="P2" time="1" time_unit="us" energy="2" energy_unit="nJ"/>
                   <transition head="P1" tail="P3" time="2" time_unit="us" energy="5" energy_unit="nJ"/>
                 </transitions>
               </power_state_machine>"#,
        )
        .unwrap();
        PowerStateMachine::from_element(doc.root()).unwrap()
    }

    #[test]
    fn parse_listing13() {
        let fsm = listing13();
        assert_eq!(fsm.name, "power_state_machine1");
        assert_eq!(fsm.domain.as_deref(), Some("xyCPU_core_pd"));
        assert_eq!(fsm.states.len(), 3);
        assert_eq!(fsm.transitions.len(), 3);
        let p2 = fsm.state("P2").unwrap();
        assert_eq!(p2.frequency_hz, 1.6e9);
        assert_eq!(p2.power_w, 28.0);
    }

    #[test]
    fn fastest_and_most_frugal() {
        let fsm = listing13();
        assert_eq!(fsm.fastest().unwrap().name, "P3");
        assert_eq!(fsm.most_frugal().unwrap().name, "P1");
    }

    #[test]
    fn direct_transition_cost() {
        let fsm = listing13();
        let c = fsm.transition_cost("P2", "P1").unwrap();
        assert!((c.time_s - 1e-6).abs() < 1e-15);
        assert!((c.energy_j - 2e-9).abs() < 1e-18);
        assert_eq!(c.hops, 1);
    }

    #[test]
    fn multi_hop_transition_cost() {
        // P3→P1 has no direct edge; path P3→P2→P1 costs 2 us / 4 nJ.
        let fsm = listing13();
        let c = fsm.transition_cost("P3", "P1").unwrap();
        assert_eq!(c.hops, 2);
        assert!((c.time_s - 2e-6).abs() < 1e-15);
        assert!((c.energy_j - 4e-9).abs() < 1e-18);
    }

    #[test]
    fn self_transition_is_free() {
        let fsm = listing13();
        let c = fsm.transition_cost("P1", "P1").unwrap();
        assert_eq!(c.hops, 0);
        assert_eq!(c.energy_j, 0.0);
    }

    #[test]
    fn completeness_holds_for_ring() {
        listing13().check_complete().unwrap();
    }

    #[test]
    fn incomplete_machine_detected() {
        let doc = XpdlDocument::parse_str(
            r#"<power_state_machine name="m">
                 <power_states>
                   <power_state name="A" frequency="1" frequency_unit="GHz" power="10" power_unit="W"/>
                   <power_state name="B" frequency="2" frequency_unit="GHz" power="20" power_unit="W"/>
                 </power_states>
                 <transitions>
                   <transition head="A" tail="B" time="1" time_unit="us" energy="1" energy_unit="nJ"/>
                 </transitions>
               </power_state_machine>"#,
        )
        .unwrap();
        let fsm = PowerStateMachine::from_element(doc.root()).unwrap();
        let err = fsm.check_complete().unwrap_err();
        assert_eq!(err, FsmError::Unreachable { from: "B".into(), to: "A".into() });
    }

    #[test]
    fn unknown_transition_state_rejected() {
        let doc = XpdlDocument::parse_str(
            r#"<power_state_machine name="m">
                 <power_states><power_state name="A" power="1" power_unit="W"/></power_states>
                 <transitions><transition head="A" tail="Z"/></transitions>
               </power_state_machine>"#,
        )
        .unwrap();
        let err = PowerStateMachine::from_element(doc.root()).unwrap_err();
        assert_eq!(err, FsmError::UnknownState { state: "Z".into(), role: "tail" });
    }

    #[test]
    fn duplicate_state_rejected() {
        let doc = XpdlDocument::parse_str(
            r#"<power_state_machine name="m">
                 <power_states>
                   <power_state name="A" power="1" power_unit="W"/>
                   <power_state name="A" power="2" power_unit="W"/>
                 </power_states>
               </power_state_machine>"#,
        )
        .unwrap();
        assert_eq!(
            PowerStateMachine::from_element(doc.root()).unwrap_err(),
            FsmError::DuplicateState("A".into())
        );
    }

    #[test]
    fn empty_machine_rejected() {
        let doc = XpdlDocument::parse_str(r#"<power_state_machine name="m"/>"#).unwrap();
        assert_eq!(PowerStateMachine::from_element(doc.root()).unwrap_err(), FsmError::Empty);
    }

    #[test]
    fn wrong_element_kind_rejected() {
        let doc = XpdlDocument::parse_str(r#"<cpu name="c"/>"#).unwrap();
        assert!(matches!(
            PowerStateMachine::from_element(doc.root()),
            Err(FsmError::BadElement(_))
        ));
    }

    #[test]
    fn non_finite_metrics_are_rejected() {
        let cases = [("energy", "2", "NaN"), ("time", "1", "inf"), ("power", "20", "-inf")];
        for (attr, good, bad) in cases {
            let src = r#"<power_state_machine name="m">
                   <power_states>
                     <power_state name="P1" frequency="1" frequency_unit="GHz" power="20" power_unit="W"/>
                     <power_state name="P2" frequency="2" frequency_unit="GHz" power="40" power_unit="W"/>
                   </power_states>
                   <transitions>
                     <transition head="P1" tail="P2" time="1" time_unit="us" energy="2" energy_unit="nJ"/>
                   </transitions>
                 </power_state_machine>"#
                .replacen(&format!(r#"{attr}="{good}""#), &format!(r#"{attr}="{bad}""#), 1);
            let doc = XpdlDocument::parse_str(&src).unwrap();
            match PowerStateMachine::from_element(doc.root()) {
                Err(FsmError::BadElement(m)) => {
                    assert!(m.contains(&format!(r#"{attr}="{bad}""#)), "{m}");
                    assert!(m.contains("not a finite number"), "{m}");
                }
                other => panic!("{attr}={bad}: expected BadElement, got {other:?}"),
            }
        }
    }

    #[test]
    fn cheapest_path_prefers_lower_energy() {
        // Two routes A→C: direct (10 nJ) vs via B (2+2 nJ) — Dijkstra must
        // pick the indirect one.
        let doc = XpdlDocument::parse_str(
            r#"<power_state_machine name="m">
                 <power_states>
                   <power_state name="A" power="1" power_unit="W"/>
                   <power_state name="B" power="1" power_unit="W"/>
                   <power_state name="C" power="1" power_unit="W"/>
                 </power_states>
                 <transitions>
                   <transition head="A" tail="C" time="1" time_unit="us" energy="10" energy_unit="nJ"/>
                   <transition head="A" tail="B" time="1" time_unit="us" energy="2" energy_unit="nJ"/>
                   <transition head="B" tail="C" time="1" time_unit="us" energy="2" energy_unit="nJ"/>
                 </transitions>
               </power_state_machine>"#,
        )
        .unwrap();
        let fsm = PowerStateMachine::from_element(doc.root()).unwrap();
        let c = fsm.transition_cost("A", "C").unwrap();
        assert_eq!(c.hops, 2);
        assert!((c.energy_j - 4e-9).abs() < 1e-18);
    }
}
