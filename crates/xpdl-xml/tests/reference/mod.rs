//! The recursive-descent parser, its character cursor and the reference
//! replacement that `parse_with` used before the pull reader, word for
//! word, kept as the oracle for the differential property in
//! `xml_reader.rs`. Only their imports changed, and `ParseOptions`, which
//! the library still defines, is imported.

#![allow(dead_code)] // the oracle keeps the parts the property does not call

pub mod escape;
pub mod lexer;
pub mod parser;
