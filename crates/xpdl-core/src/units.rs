//! Units and quantities for XPDL metrics.
//!
//! The paper's `metric_unit` convention attaches a unit string to every
//! numeric metric (`frequency_unit="GHz"`, `energy_per_byte_unit="pJ"`,
//! `max_bandwidth_unit="GiB/s"`; sizes use the bare `unit` attribute).
//! This module interprets those strings as typed quantities and provides
//! checked conversion to a canonical base unit per dimension:
//!
//! | dimension | base unit |
//! |---|---|
//! | Size | byte (B) |
//! | Frequency | hertz (Hz) |
//! | Power | watt (W) |
//! | Energy | joule (J) |
//! | Time | second (s) |
//! | Bandwidth | bytes/second (B/s) |
//! | Voltage | volt (V) |
//! | Dimensionless | 1 |
//!
//! SI prefixes are decimal (`kB` = 1000 B) and IEC prefixes are binary
//! (`KiB` = 1024 B), following the standards. The paper's listings mix
//! `KB`/`kB`/`KiB`; uppercase `K` without `i` is treated as the SI kilo
//! (1000) — the distinction never affects any of the paper's constraints,
//! which are homogeneous in one unit.

use crate::error::{CoreError, CoreResult};
use std::fmt;

/// Physical dimension of a quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dimension {
    /// Data size, base unit byte.
    Size,
    /// Frequency, base unit hertz.
    Frequency,
    /// Power, base unit watt.
    Power,
    /// Energy, base unit joule.
    Energy,
    /// Time, base unit second.
    Time,
    /// Data rate, base unit bytes per second.
    Bandwidth,
    /// Electric potential, base unit volt.
    Voltage,
    /// Pure number.
    Dimensionless,
}

impl Dimension {
    /// Symbol of the base unit for this dimension.
    pub fn base_symbol(self) -> &'static str {
        match self {
            Dimension::Size => "B",
            Dimension::Frequency => "Hz",
            Dimension::Power => "W",
            Dimension::Energy => "J",
            Dimension::Time => "s",
            Dimension::Bandwidth => "B/s",
            Dimension::Voltage => "V",
            Dimension::Dimensionless => "",
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Dimension::Size => "size",
            Dimension::Frequency => "frequency",
            Dimension::Power => "power",
            Dimension::Energy => "energy",
            Dimension::Time => "time",
            Dimension::Bandwidth => "bandwidth",
            Dimension::Voltage => "voltage",
            Dimension::Dimensionless => "dimensionless",
        };
        write!(f, "{name}")
    }
}

/// A parsed unit: a dimension plus the multiplier to the base unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The dimension this unit measures.
    pub dimension: Dimension,
    /// Factor converting one of this unit into base units.
    pub factor: f64,
    /// The original unit string (for round-trip printing).
    pub symbol: String,
}

impl Unit {
    /// The base unit of a dimension (factor 1).
    pub fn base(dimension: Dimension) -> Unit {
        Unit { dimension, factor: 1.0, symbol: dimension.base_symbol().to_string() }
    }

    /// Parse a unit string such as `KiB`, `GHz`, `pJ`, `us`, `GiB/s`, `W`.
    pub fn parse(s: &str) -> CoreResult<Unit> {
        let (dimension, factor) = Unit::scale(s)?;
        Ok(Unit { dimension, factor, symbol: s.trim().to_string() })
    }

    /// A unit string's dimension and factor to the base unit, as
    /// [`parse`](Self::parse) reads them, without copying the symbol.
    pub fn scale(s: &str) -> CoreResult<(Dimension, f64)> {
        let raw = s.trim();
        if raw.is_empty() {
            return Ok((Dimension::Dimensionless, 1.0));
        }
        // Bandwidth: `<size-unit>/s`.
        if let Some(num) = raw.strip_suffix("/s") {
            return match Unit::scale(num)? {
                (Dimension::Size, factor) => Ok((Dimension::Bandwidth, factor)),
                _ => Err(CoreError::BadUnit { unit: raw.to_string() }),
            };
        }
        for (suffix, dim) in [
            ("iB", Dimension::Size), // IEC binary, e.g. KiB/MiB/GiB
            ("B", Dimension::Size),
            ("Hz", Dimension::Frequency),
            ("W", Dimension::Power),
            ("J", Dimension::Energy),
            ("s", Dimension::Time),
            ("V", Dimension::Voltage),
        ] {
            if let Some(prefix) = raw.strip_suffix(suffix) {
                let binary = suffix == "iB";
                let Some(factor) = prefix_factor(prefix, binary) else { continue };
                return Ok((dim, factor));
            }
        }
        Err(CoreError::BadUnit { unit: raw.to_string() })
    }
}

/// Multiplier for a prefix string; `binary` selects IEC powers of 1024.
fn prefix_factor(prefix: &str, binary: bool) -> Option<f64> {
    let k: f64 = if binary { 1024.0 } else { 1000.0 };
    Some(match prefix {
        "" => 1.0,
        "k" | "K" => k,
        "M" => k * k,
        "G" => k * k * k,
        "T" => k * k * k * k,
        "P" => k * k * k * k * k,
        // Sub-unit prefixes are always decimal (no binary milli-bytes).
        "m" if !binary => 1e-3,
        "u" | "µ" if !binary => 1e-6,
        "n" if !binary => 1e-9,
        "p" if !binary => 1e-12,
        "f" if !binary => 1e-15,
        _ => return None,
    })
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol)
    }
}

/// A number together with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Quantity {
    /// Magnitude in `unit`s.
    pub value: f64,
    /// The unit of `value`.
    pub unit: Unit,
}

impl Quantity {
    /// Construct from magnitude and unit.
    pub fn new(value: f64, unit: Unit) -> Quantity {
        Quantity { value, unit }
    }

    /// Construct from magnitude and a unit string.
    pub fn parse(value: f64, unit: &str) -> CoreResult<Quantity> {
        Ok(Quantity { value, unit: Unit::parse(unit)? })
    }

    /// A dimensionless count.
    pub fn count(value: f64) -> Quantity {
        Quantity { value, unit: Unit::base(Dimension::Dimensionless) }
    }

    /// The dimension of this quantity.
    pub fn dimension(&self) -> Dimension {
        self.unit.dimension
    }

    /// Value expressed in the dimension's base unit.
    pub fn to_base(&self) -> f64 {
        self.value * self.unit.factor
    }

    /// Convert to another unit of the same dimension.
    pub fn convert_to(&self, unit: &Unit) -> CoreResult<Quantity> {
        if unit.dimension != self.unit.dimension {
            return Err(CoreError::DimensionMismatch {
                left: self.unit.symbol.clone(),
                right: unit.symbol.clone(),
            });
        }
        Ok(Quantity { value: self.to_base() / unit.factor, unit: unit.clone() })
    }

    /// Add two quantities (any units of the same dimension); result is in
    /// `self`'s unit.
    pub fn checked_add(&self, other: &Quantity) -> CoreResult<Quantity> {
        let o = other.convert_to(&self.unit)?;
        Ok(Quantity { value: self.value + o.value, unit: self.unit.clone() })
    }

    /// Compare magnitudes across units of the same dimension.
    pub fn partial_cmp_dim(&self, other: &Quantity) -> CoreResult<std::cmp::Ordering> {
        if self.dimension() != other.dimension() {
            return Err(CoreError::DimensionMismatch {
                left: self.unit.symbol.clone(),
                right: other.unit.symbol.clone(),
            });
        }
        self.to_base()
            .partial_cmp(&other.to_base())
            .ok_or_else(|| CoreError::Invalid {
                context: "quantity comparison".into(),
                message: "NaN magnitude".into(),
            })
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unit.symbol.is_empty() {
            write!(f, "{}", self.value)
        } else {
            write!(f, "{} {}", self.value, self.unit.symbol)
        }
    }
}

/// Convenience constructors for common quantities used across the workspace.
pub mod q {
    use super::*;

    /// Bytes.
    pub fn bytes(v: f64) -> Quantity {
        Quantity::new(v, Unit::base(Dimension::Size))
    }

    /// Hertz.
    pub fn hertz(v: f64) -> Quantity {
        Quantity::new(v, Unit::base(Dimension::Frequency))
    }

    /// Gigahertz.
    pub fn ghz(v: f64) -> Quantity {
        Quantity::parse(v, "GHz").expect("literal unit \"GHz\" is in the static table")
    }

    /// Watts.
    pub fn watts(v: f64) -> Quantity {
        Quantity::new(v, Unit::base(Dimension::Power))
    }

    /// Joules.
    pub fn joules(v: f64) -> Quantity {
        Quantity::new(v, Unit::base(Dimension::Energy))
    }

    /// Nanojoules.
    pub fn nanojoules(v: f64) -> Quantity {
        Quantity::parse(v, "nJ").expect("literal unit \"nJ\" is in the static table")
    }

    /// Seconds.
    pub fn seconds(v: f64) -> Quantity {
        Quantity::new(v, Unit::base(Dimension::Time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(q: f64, u: &str) -> f64 {
        Quantity::parse(q, u).unwrap().to_base()
    }

    #[test]
    fn paper_size_units() {
        assert_eq!(base(32.0, "KiB"), 32.0 * 1024.0);
        assert_eq!(base(256.0, "KiB"), 256.0 * 1024.0);
        assert_eq!(base(15.0, "MiB"), 15.0 * 1024.0 * 1024.0);
        assert_eq!(base(16.0, "GB"), 16.0e9);
        assert_eq!(base(4.0, "kB"), 4000.0);
        assert_eq!(base(64.0, "KB"), 64000.0);
        assert_eq!(base(1.0, "MB"), 1.0e6);
        assert_eq!(base(5.0, "GB"), 5.0e9);
    }

    #[test]
    fn paper_frequency_units() {
        assert_eq!(base(2.0, "GHz"), 2.0e9);
        assert_eq!(base(180.0, "MHz"), 180.0e6);
        assert_eq!(base(706.0, "MHz"), 706.0e6);
    }

    #[test]
    fn paper_power_energy_time_units() {
        assert_eq!(base(4.0, "W"), 4.0);
        assert_eq!(base(20.0, "W"), 20.0);
        assert!((base(8.0, "pJ") - 8.0e-12).abs() < 1e-24);
        assert!((base(18.625, "nJ") - 18.625e-9).abs() < 1e-20);
        assert!((base(2.0, "nJ") - 2.0e-9).abs() < 1e-20);
        assert_eq!(base(1.0, "us"), 1.0e-6);
        assert_eq!(base(5.0, "ns"), 5.0e-9);
        assert_eq!(base(3.0, "ms"), 3.0e-3);
    }

    #[test]
    fn paper_bandwidth_units() {
        assert_eq!(base(6.0, "GiB/s"), 6.0 * 1024.0 * 1024.0 * 1024.0);
        assert_eq!(base(1.0, "GB/s"), 1.0e9);
        let u = Unit::parse("GiB/s").unwrap();
        assert_eq!(u.dimension, Dimension::Bandwidth);
    }

    #[test]
    fn bad_units_rejected() {
        for bad in ["XB", "GHzz", "1s", "s/s", "W/s", "Ki", "µiB"] {
            assert!(Unit::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn empty_unit_is_dimensionless() {
        let u = Unit::parse("").unwrap();
        assert_eq!(u.dimension, Dimension::Dimensionless);
        assert_eq!(u.factor, 1.0);
    }

    #[test]
    fn conversion_between_units() {
        let q = Quantity::parse(64.0, "KiB").unwrap();
        let mib = q.convert_to(&Unit::parse("MiB").unwrap()).unwrap();
        assert_eq!(mib.value, 0.0625);
        assert_eq!(mib.unit.symbol, "MiB");
    }

    #[test]
    fn conversion_rejects_cross_dimension() {
        let q = Quantity::parse(1.0, "W").unwrap();
        let err = q.convert_to(&Unit::parse("GB").unwrap()).unwrap_err();
        assert!(matches!(err, CoreError::DimensionMismatch { .. }));
    }

    #[test]
    fn checked_add_mixed_units() {
        let a = Quantity::parse(16.0, "KB").unwrap();
        let b = Quantity::parse(48.0, "KB").unwrap();
        let s = a.checked_add(&b).unwrap();
        assert_eq!(s.value, 64.0);
        assert_eq!(s.unit.symbol, "KB");
        let mib = Quantity::parse(1.0, "MiB").unwrap();
        let kib = Quantity::parse(512.0, "KiB").unwrap();
        assert_eq!(mib.checked_add(&kib).unwrap().value, 1.5);
    }

    #[test]
    fn comparison_across_units() {
        use std::cmp::Ordering;
        let a = Quantity::parse(1.0, "GiB").unwrap();
        let b = Quantity::parse(1.0, "GB").unwrap();
        assert_eq!(a.partial_cmp_dim(&b).unwrap(), Ordering::Greater);
        assert!(a
            .partial_cmp_dim(&Quantity::parse(1.0, "GHz").unwrap())
            .is_err());
    }

    #[test]
    fn micro_prefix_both_spellings() {
        assert_eq!(base(1.0, "us"), base(1.0, "µs"));
    }

    #[test]
    fn display_quantities() {
        assert_eq!(Quantity::parse(2.5, "GHz").unwrap().to_string(), "2.5 GHz");
        assert_eq!(Quantity::count(4.0).to_string(), "4");
    }

    #[test]
    fn kepler_constraint_units_consistent() {
        // 16 KB + 48 KB == 64 KB regardless of SI/IEC interpretation,
        // because the constraint is homogeneous in the unit.
        for u in ["KB", "KiB", "kB"] {
            let l1 = Quantity::parse(16.0, u).unwrap();
            let shm = Quantity::parse(48.0, u).unwrap();
            let total = Quantity::parse(64.0, u).unwrap();
            let sum = l1.checked_add(&shm).unwrap();
            assert_eq!(sum.to_base(), total.to_base(), "unit {u}");
        }
    }

    #[test]
    fn q_constructors() {
        assert_eq!(q::ghz(2.0).to_base(), 2e9);
        assert_eq!(q::bytes(10.0).to_base(), 10.0);
        assert_eq!(q::watts(3.0).dimension(), Dimension::Power);
        assert!((q::nanojoules(2.0).to_base() - 2e-9).abs() < 1e-20);
        assert_eq!(q::seconds(1.0).dimension(), Dimension::Time);
        assert_eq!(q::hertz(5.0).to_base(), 5.0);
        assert_eq!(q::joules(1.0).to_base(), 1.0);
    }

    #[test]
    fn large_prefixes() {
        assert_eq!(base(1.0, "TB"), 1e12);
        assert_eq!(base(1.0, "TiB"), 1024f64.powi(4));
        assert_eq!(base(1.0, "PB"), 1e15);
    }
}
