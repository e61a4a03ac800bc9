//! Errors for the XPDL document model.

use std::fmt;
use xpdl_xml::XmlError;

/// Result alias.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors raised while building the typed model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying XML syntax error.
    Xml(XmlError),
    /// A unit string that cannot be interpreted.
    BadUnit { unit: String },
    /// Units of two incompatible dimensions were combined/converted.
    DimensionMismatch { left: String, right: String },
    /// An attribute expected to be numeric is not.
    BadNumber { attr: String, value: String },
    /// A numeric attribute whose value is not finite (`NaN`, `inf`, or
    /// past `f64`'s range in its base unit).
    NotFinite { attr: String },
    /// An element carries both `name` and `id` (meta and instance markers).
    BothNameAndId { element: String },
    /// A `group` with `quantity` but an invalid count.
    BadQuantity { value: String },
    /// Duplicate `name`/`id` within one document.
    DuplicateIdentifier { ident: String },
    /// Free-form invariant violation with context.
    Invalid { context: String, message: String },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Xml(e) => write!(f, "XML error: {e}"),
            CoreError::BadUnit { unit } => write!(f, "unrecognized unit {unit:?}"),
            CoreError::DimensionMismatch { left, right } => {
                write!(f, "incompatible dimensions: {left} vs {right}")
            }
            CoreError::BadNumber { attr, value } => {
                write!(f, "attribute {attr:?} is not numeric: {value:?}")
            }
            CoreError::NotFinite { attr } => write!(f, "attribute {attr:?} is not a finite number"),
            CoreError::BothNameAndId { element } => {
                write!(f, "element <{element}> has both 'name' (meta-model) and 'id' (instance)")
            }
            CoreError::BadQuantity { value } => {
                write!(f, "invalid group quantity {value:?}")
            }
            CoreError::DuplicateIdentifier { ident } => {
                write!(f, "duplicate identifier {ident:?} in document")
            }
            CoreError::Invalid { context, message } => write!(f, "{context}: {message}"),
        }
    }
}

impl CoreError {
    /// Stable machine-readable diagnostic code (`P0xx` = parse/model).
    pub fn code(&self) -> &'static str {
        match self {
            CoreError::Xml(_) => "P000",
            CoreError::BothNameAndId { .. } => "P001",
            CoreError::BadUnit { .. } => "P002",
            CoreError::DimensionMismatch { .. } => "P003",
            CoreError::BadNumber { .. } => "P004",
            CoreError::BadQuantity { .. } => "P005",
            CoreError::DuplicateIdentifier { .. } => "P006",
            CoreError::Invalid { .. } => "P007",
            CoreError::NotFinite { .. } => "P008",
        }
    }

    /// Convert into a [`Diagnostic`](crate::diag::Diagnostic) anchored at
    /// `path`; XML syntax errors keep their source position as a span.
    pub fn to_diagnostic(&self, path: &str) -> crate::diag::Diagnostic {
        let mut d = crate::diag::Diagnostic::error(path, self.to_string()).with_code(self.code());
        if let CoreError::Xml(xml) = self {
            d = d.with_span(xpdl_xml::Span::at(xml.pos));
        }
        d
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for CoreError {
    fn from(e: XmlError) -> Self {
        CoreError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::BadUnit { unit: "XB".into() }.to_string().contains("XB"));
        assert!(CoreError::DimensionMismatch { left: "W".into(), right: "B".into() }
            .to_string()
            .contains("W"));
        assert!(CoreError::BadNumber { attr: "size".into(), value: "big".into() }
            .to_string()
            .contains("size"));
        assert!(CoreError::BothNameAndId { element: "cpu".into() }.to_string().contains("cpu"));
        assert!(CoreError::DuplicateIdentifier { ident: "x".into() }.to_string().contains("x"));
    }

    #[test]
    fn xml_error_wraps_with_source() {
        use std::error::Error;
        let xml = XmlError::new(xpdl_xml::XmlErrorKind::NoRootElement, xpdl_xml::Pos::START);
        let e = CoreError::from(xml);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("XML"));
    }

    #[test]
    fn core_errors_convert_to_coded_diagnostics() {
        let d = CoreError::BadUnit { unit: "XB".into() }.to_diagnostic("f.xpdl");
        assert_eq!(d.code, "P002");
        assert_eq!(d.path, "f.xpdl");
        assert!(d.is_error());
        assert!(d.pos().is_none());

        let pos = xpdl_xml::Pos { offset: 10, line: 2, col: 3 };
        let xml = CoreError::Xml(XmlError::new(xpdl_xml::XmlErrorKind::NoRootElement, pos));
        let d = xml.to_diagnostic("f.xpdl");
        assert_eq!(d.code, "P000");
        assert_eq!(d.pos().expect("xml errors carry a span").line, 2);
    }
}
