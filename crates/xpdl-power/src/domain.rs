//! Power domains / power islands (Listing 12).

use std::collections::BTreeMap;
use std::fmt;
use xpdl_core::{ElementKind, XpdlElement};
use xpdl_expr::{eval_str, DomainState, Env, Value};

/// Errors in power-domain handling.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainError {
    /// Switch-off requested for a domain that cannot be switched off.
    NotSwitchable(String),
    /// The domain's `switchoffCondition` is not satisfied.
    ConditionUnsatisfied {
        /// Domain name.
        domain: String,
        /// The condition expression.
        condition: String,
    },
    /// The condition failed to evaluate.
    ConditionError {
        /// Domain name.
        domain: String,
        /// Evaluation error text.
        error: String,
    },
    /// Unknown domain name.
    Unknown(String),
}

impl fmt::Display for DomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DomainError::NotSwitchable(d) => {
                write!(f, "power domain '{d}' cannot be switched off")
            }
            DomainError::ConditionUnsatisfied { domain, condition } => {
                write!(f, "power domain '{domain}': switch-off condition not met: {condition}")
            }
            DomainError::ConditionError { domain, error } => {
                write!(f, "power domain '{domain}': condition error: {error}")
            }
            DomainError::Unknown(d) => write!(f, "unknown power domain '{d}'"),
        }
    }
}

impl std::error::Error for DomainError {}

/// One power domain.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerDomainModel {
    /// Domain name.
    pub name: String,
    /// Whether software may switch it off (`enableSwitchOff`, default true
    /// for explicitly declared domains; the default/main domain is always
    /// non-switchable).
    pub enable_switch_off: bool,
    /// Guard expression that must hold to switch off (Listing 12:
    /// `switchoffCondition="Shave_pds off"`).
    pub switchoff_condition: Option<String>,
    /// `type=` references of the hardware components in the domain.
    pub component_types: Vec<String>,
    /// The group this domain was expanded from, if any.
    pub group: Option<String>,
}

/// A set of power domains with their current on/off state — the runtime
/// companion to a `power_domains` descriptor.
#[derive(Debug, Clone, Default)]
pub struct PowerDomainSet {
    domains: Vec<PowerDomainModel>,
    state: BTreeMap<String, DomainState>,
    /// Group name → member domain names (for `Shave_pds off` style
    /// conditions that quantify over a whole group).
    groups: BTreeMap<String, Vec<String>>,
}

impl PowerDomainSet {
    /// Parse a `power_domains` element (Listing 12). Group-wrapped domains
    /// (`<group name="Shave_pds" quantity="8">`) register both the members
    /// and the group itself; *unexpanded* groups with a quantity expand
    /// here with rank-suffixed names.
    pub fn from_element(e: &XpdlElement) -> PowerDomainSet {
        let mut set = PowerDomainSet::default();
        for child in &e.children {
            match child.kind {
                ElementKind::PowerDomain => set.add_domain(child, None),
                ElementKind::Group => {
                    let gname = child.ident().unwrap_or("group").to_string();
                    let quantity = child.group_quantity().ok().flatten();
                    match quantity {
                        Some(n) => {
                            for i in 0..n {
                                for pd in child.children_of_kind(ElementKind::PowerDomain) {
                                    set.add_domain_named(
                                        pd,
                                        format!(
                                            "{}{}",
                                            pd.ident().unwrap_or("pd"),
                                            i
                                        ),
                                        Some(gname.clone()),
                                    );
                                }
                            }
                        }
                        None => {
                            for pd in child.children_of_kind(ElementKind::PowerDomain) {
                                set.add_domain(pd, Some(gname.clone()));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        set
    }

    fn add_domain(&mut self, pd: &XpdlElement, group: Option<String>) {
        let name = pd.ident().unwrap_or("power_domain").to_string();
        self.add_domain_named(pd, name, group);
    }

    fn add_domain_named(&mut self, pd: &XpdlElement, name: String, group: Option<String>) {
        let enable_switch_off =
            pd.attr("enableSwitchOff").map(|v| v.trim() == "true").unwrap_or(true);
        let switchoff_condition = pd.attr("switchoffCondition").map(str::to_string);
        let component_types = pd
            .children
            .iter()
            .filter_map(|c| c.type_ref.as_deref().or_else(|| c.ident()).map(str::to_string))
            .collect();
        if let Some(g) = &group {
            self.groups.entry(g.clone()).or_default().push(name.clone());
        }
        self.state.insert(name.clone(), DomainState::On);
        self.domains.push(PowerDomainModel {
            name,
            enable_switch_off,
            switchoff_condition,
            component_types,
            group,
        });
    }

    /// Registered domains.
    pub fn domains(&self) -> &[PowerDomainModel] {
        &self.domains
    }

    /// Look up a domain.
    pub fn domain(&self, name: &str) -> Option<&PowerDomainModel> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Current state of a domain or group (a group is Off iff all members
    /// are Off).
    pub fn state(&self, name: &str) -> Option<DomainState> {
        if let Some(s) = self.state.get(name) {
            return Some(*s);
        }
        let members = self.groups.get(name)?;
        let all_off = members
            .iter()
            .all(|m| self.state.get(m) == Some(&DomainState::Off));
        Some(if all_off { DomainState::Off } else { DomainState::On })
    }

    /// Attempt to switch a domain off, enforcing `enableSwitchOff` and the
    /// `switchoffCondition` ("this island can only be turned off if all the
    /// Shave cores are switched off").
    pub fn switch_off(&mut self, name: &str) -> Result<(), DomainError> {
        let d = self
            .domain(name)
            .cloned()
            .ok_or_else(|| DomainError::Unknown(name.to_string()))?;
        if !d.enable_switch_off {
            return Err(DomainError::NotSwitchable(name.to_string()));
        }
        if let Some(cond) = &d.switchoff_condition {
            match eval_str(cond, &StateEnv(self)) {
                Ok(Value::Bool(true)) => {}
                Ok(_) => {
                    return Err(DomainError::ConditionUnsatisfied {
                        domain: name.to_string(),
                        condition: cond.clone(),
                    })
                }
                Err(e) => {
                    return Err(DomainError::ConditionError {
                        domain: name.to_string(),
                        error: e.to_string(),
                    })
                }
            }
        }
        self.state.insert(name.to_string(), DomainState::Off);
        Ok(())
    }

    /// Switch a domain back on (always allowed).
    pub fn switch_on(&mut self, name: &str) -> Result<(), DomainError> {
        if !self.state.contains_key(name) {
            return Err(DomainError::Unknown(name.to_string()));
        }
        self.state.insert(name.to_string(), DomainState::On);
        Ok(())
    }

    /// Names of domains currently off.
    pub fn off_domains(&self) -> Vec<&str> {
        self.state
            .iter()
            .filter(|(_, s)| **s == DomainState::Off)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

struct StateEnv<'a>(&'a PowerDomainSet);

impl Env for StateEnv<'_> {
    fn domain_state(&self, name: &str) -> Option<DomainState> {
        self.0.state(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpdl_core::XpdlDocument;

    /// Listing 12: the Myriad1 power domains.
    fn myriad() -> PowerDomainSet {
        let doc = XpdlDocument::parse_str(
            r#"<power_domains name="Myriad1_power_domains">
                 <power_domain name="main_pd" enableSwitchOff="false">
                   <core type="Leon"/>
                 </power_domain>
                 <group name="Shave_pds" quantity="8">
                   <power_domain name="Shave_pd">
                     <core type="Myriad1_Shave"/>
                   </power_domain>
                 </group>
                 <power_domain name="CMX_pd" switchoffCondition="Shave_pds off">
                   <memory type="CMX"/>
                 </power_domain>
               </power_domains>"#,
        )
        .unwrap();
        PowerDomainSet::from_element(doc.root())
    }

    #[test]
    fn listing12_parses_ten_domains() {
        let s = myriad();
        // main + 8 shaves + CMX.
        assert_eq!(s.domains().len(), 10);
        assert!(s.domain("main_pd").is_some());
        assert!(s.domain("Shave_pd0").is_some());
        assert!(s.domain("Shave_pd7").is_some());
        assert!(s.domain("CMX_pd").is_some());
    }

    #[test]
    fn main_domain_cannot_switch_off() {
        let mut s = myriad();
        assert_eq!(
            s.switch_off("main_pd").unwrap_err(),
            DomainError::NotSwitchable("main_pd".into())
        );
        assert_eq!(s.state("main_pd"), Some(DomainState::On));
    }

    #[test]
    fn cmx_guarded_by_shave_group() {
        let mut s = myriad();
        // CMX cannot switch off while any Shave is on.
        let err = s.switch_off("CMX_pd").unwrap_err();
        assert!(matches!(err, DomainError::ConditionUnsatisfied { .. }), "{err}");
        // Switch all 8 shaves off → now the group reads Off → CMX may go.
        for i in 0..8 {
            s.switch_off(&format!("Shave_pd{i}")).unwrap();
        }
        assert_eq!(s.state("Shave_pds"), Some(DomainState::Off));
        s.switch_off("CMX_pd").unwrap();
        assert_eq!(s.state("CMX_pd"), Some(DomainState::Off));
    }

    #[test]
    fn partial_shave_off_keeps_group_on() {
        let mut s = myriad();
        for i in 0..7 {
            s.switch_off(&format!("Shave_pd{i}")).unwrap();
        }
        assert_eq!(s.state("Shave_pds"), Some(DomainState::On));
        assert!(s.switch_off("CMX_pd").is_err());
    }

    #[test]
    fn switch_on_recovers() {
        let mut s = myriad();
        s.switch_off("Shave_pd0").unwrap();
        assert_eq!(s.off_domains(), vec!["Shave_pd0"]);
        s.switch_on("Shave_pd0").unwrap();
        assert!(s.off_domains().is_empty());
    }

    #[test]
    fn unknown_domain_errors() {
        let mut s = myriad();
        assert_eq!(s.switch_off("nope").unwrap_err(), DomainError::Unknown("nope".into()));
        assert_eq!(s.switch_on("nope").unwrap_err(), DomainError::Unknown("nope".into()));
        assert_eq!(s.state("nope"), None);
    }

    #[test]
    fn component_types_captured() {
        let s = myriad();
        assert_eq!(s.domain("main_pd").unwrap().component_types, vec!["Leon"]);
        assert_eq!(s.domain("CMX_pd").unwrap().component_types, vec!["CMX"]);
        assert_eq!(s.domain("Shave_pd3").unwrap().group.as_deref(), Some("Shave_pds"));
    }

    #[test]
    fn ungrouped_group_registers_members() {
        let doc = XpdlDocument::parse_str(
            r#"<power_domains name="pds">
                 <group name="g"><power_domain name="a"/><power_domain name="b"/></group>
               </power_domains>"#,
        )
        .unwrap();
        let mut s = PowerDomainSet::from_element(doc.root());
        assert_eq!(s.domains().len(), 2);
        s.switch_off("a").unwrap();
        assert_eq!(s.state("g"), Some(DomainState::On));
        s.switch_off("b").unwrap();
        assert_eq!(s.state("g"), Some(DomainState::Off));
    }
}
