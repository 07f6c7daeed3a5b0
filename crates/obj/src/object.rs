//! Object files: sections + symbols, with a binary wire format.

use crate::error::ObjError;
use crate::hash::ContentHash;
use crate::reloc::{Reloc, RelocKind};
use crate::section::{Section, SectionId, SectionKind};
use crate::symbol::{Symbol, SymbolKind};
use bytes::{Buf, BufMut};

/// A relocatable object file.
///
/// Produced by the codegen backend for each module, cached by content
/// hash in the build system, and consumed by the linker.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObjectFile {
    /// Originating file name, e.g. `"s_1.o"`.
    pub name: String,
    sections: Vec<Section>,
    symbols: Vec<Symbol>,
}

/// Per-kind byte totals for an object or binary (Figure 6 categories).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SizeBreakdown {
    /// Executable code bytes.
    pub text: usize,
    /// Call-frame information bytes.
    pub eh_frame: usize,
    /// Basic-block address-map metadata bytes.
    pub bb_addr_map: usize,
    /// Relocation record bytes (24 bytes per record plus `.rela`
    /// section payloads).
    pub relocs: usize,
    /// Everything else (read-only data, debug ranges, ...).
    pub other: usize,
}

impl SizeBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> usize {
        self.text + self.eh_frame + self.bb_addr_map + self.relocs + self.other
    }

    /// Adds another breakdown into this one.
    pub fn accumulate(&mut self, other: &SizeBreakdown) {
        self.text += other.text;
        self.eh_frame += other.eh_frame;
        self.bb_addr_map += other.bb_addr_map;
        self.relocs += other.relocs;
        self.other += other.other;
    }
}

impl ObjectFile {
    /// Creates an empty object file.
    pub fn new(name: impl Into<String>) -> Self {
        ObjectFile {
            name: name.into(),
            sections: Vec::new(),
            symbols: Vec::new(),
        }
    }

    /// Appends a section, returning its id.
    pub fn add_section(&mut self, section: Section) -> SectionId {
        let id = SectionId(self.sections.len() as u32);
        self.sections.push(section);
        id
    }

    /// Appends a symbol.
    pub fn add_symbol(&mut self, symbol: Symbol) {
        self.symbols.push(symbol);
    }

    /// All sections in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to sections (used by the linker's relaxation pass
    /// operating on owned copies).
    pub fn sections_mut(&mut self) -> &mut [Section] {
        &mut self.sections
    }

    /// All symbols in file order.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Looks up a section by id.
    pub fn section(&self, id: SectionId) -> Option<&Section> {
        self.sections.get(id.index())
    }

    /// Looks up a global symbol by name.
    pub fn global_symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.global && s.name == name)
    }

    /// Computes the Figure 6 size breakdown for this object.
    pub fn size_breakdown(&self) -> SizeBreakdown {
        let mut b = SizeBreakdown::default();
        for s in &self.sections {
            match s.kind {
                SectionKind::Text => b.text += s.size(),
                SectionKind::EhFrame => b.eh_frame += s.size(),
                SectionKind::BbAddrMap => b.bb_addr_map += s.size(),
                SectionKind::Rela => b.relocs += s.size(),
                _ => b.other += s.size(),
            }
            b.relocs += s.reloc_bytes();
        }
        b
    }

    /// Content hash of the encoded object (the build-cache key for the
    /// artifact).
    pub fn content_hash(&self) -> ContentHash {
        ContentHash::of_bytes(&self.encode())
    }

    /// Serializes the object to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + self.sections.iter().map(Section::size).sum::<usize>());
        out.put_u32_le(0x504f_424a); // "POBJ"
        put_str(&mut out, &self.name);
        out.put_u32_le(self.sections.len() as u32);
        for s in &self.sections {
            put_str(&mut out, &s.name);
            out.put_u8(s.kind.tag());
            out.put_u32_le(s.align);
            out.put_u32_le(s.bytes.len() as u32);
            out.put_slice(&s.bytes);
            out.put_u32_le(s.relocs.len() as u32);
            for r in &s.relocs {
                out.put_u32_le(r.offset);
                out.put_u8(r.kind.tag());
                put_str(&mut out, &r.symbol);
                out.put_i64_le(r.addend);
            }
            out.put_u32_le(s.block_map.len() as u32);
            for span in &s.block_map {
                out.put_u32_le(span.offset);
                out.put_u32_le(span.size);
            }
            out.put_u8(u8::from(s.relaxable));
        }
        out.put_u32_le(self.symbols.len() as u32);
        for sym in &self.symbols {
            put_str(&mut out, &sym.name);
            out.put_u32_le(sym.section.0);
            out.put_u32_le(sym.offset);
            out.put_u32_le(sym.size);
            out.put_u8(u8::from(sym.global));
            out.put_u8(sym.kind.tag());
        }
        out
    }

    /// Decodes an object from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError`] if the stream is truncated, has a bad magic
    /// number or tag, contains invalid UTF-8, or references a
    /// nonexistent section.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, ObjError> {
        let buf = &mut bytes;
        let magic = get_u32(buf, "magic")?;
        if magic != 0x504f_424a {
            return Err(ObjError::BadTag {
                context: "magic",
                value: magic,
            });
        }
        let name = get_str(buf, "object name")?;
        let nsec = get_u32(buf, "section count")? as usize;
        let mut sections = Vec::with_capacity(nsec.min(1 << 20));
        for _ in 0..nsec {
            let sname = get_str(buf, "section name")?;
            let ktag = get_u8(buf, "section kind")?;
            let kind = SectionKind::from_tag(ktag).ok_or(ObjError::BadTag {
                context: "section kind",
                value: ktag as u32,
            })?;
            let align = get_u32(buf, "section align")?;
            let len = get_u32(buf, "section len")? as usize;
            if buf.remaining() < len {
                return Err(ObjError::Truncated {
                    context: "section bytes",
                });
            }
            let mut data = vec![0u8; len];
            buf.copy_to_slice(&mut data);
            let nrel = get_u32(buf, "reloc count")? as usize;
            let mut relocs = Vec::with_capacity(nrel.min(1 << 20));
            for _ in 0..nrel {
                let offset = get_u32(buf, "reloc offset")?;
                let rtag = get_u8(buf, "reloc kind")?;
                let kind = RelocKind::from_tag(rtag).ok_or(ObjError::BadTag {
                    context: "reloc kind",
                    value: rtag as u32,
                })?;
                let symbol = get_str(buf, "reloc symbol")?;
                let addend = get_i64(buf, "reloc addend")?;
                relocs.push(Reloc {
                    offset,
                    kind,
                    symbol,
                    addend,
                });
            }
            let nspan = get_u32(buf, "block map count")? as usize;
            let mut block_map = Vec::with_capacity(nspan.min(1 << 20));
            for _ in 0..nspan {
                block_map.push(crate::section::BlockSpan {
                    offset: get_u32(buf, "block span offset")?,
                    size: get_u32(buf, "block span size")?,
                });
            }
            let relaxable = get_u8(buf, "relaxable flag")? != 0;
            sections.push(Section {
                name: sname,
                kind,
                bytes: data,
                relocs,
                align,
                block_map,
                relaxable,
            });
        }
        let nsym = get_u32(buf, "symbol count")? as usize;
        let mut symbols = Vec::with_capacity(nsym.min(1 << 20));
        for _ in 0..nsym {
            let name = get_str(buf, "symbol name")?;
            let section = get_u32(buf, "symbol section")?;
            if section as usize >= sections.len() {
                return Err(ObjError::BadSectionIndex(section));
            }
            let offset = get_u32(buf, "symbol offset")?;
            let size = get_u32(buf, "symbol size")?;
            let global = get_u8(buf, "symbol global")? != 0;
            let ktag = get_u8(buf, "symbol kind")?;
            let kind = SymbolKind::from_tag(ktag).ok_or(ObjError::BadTag {
                context: "symbol kind",
                value: ktag as u32,
            })?;
            symbols.push(Symbol {
                name,
                section: SectionId(section),
                offset,
                size,
                global,
                kind,
            });
        }
        Ok(ObjectFile {
            name,
            sections,
            symbols,
        })
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

pub(crate) fn get_u8(buf: &mut &[u8], context: &'static str) -> Result<u8, ObjError> {
    if buf.remaining() < 1 {
        return Err(ObjError::Truncated { context });
    }
    Ok(buf.get_u8())
}

pub(crate) fn get_u32(buf: &mut &[u8], context: &'static str) -> Result<u32, ObjError> {
    if buf.remaining() < 4 {
        return Err(ObjError::Truncated { context });
    }
    Ok(buf.get_u32_le())
}

pub(crate) fn get_i64(buf: &mut &[u8], context: &'static str) -> Result<i64, ObjError> {
    if buf.remaining() < 8 {
        return Err(ObjError::Truncated { context });
    }
    Ok(buf.get_i64_le())
}

pub(crate) fn get_str(buf: &mut &[u8], context: &'static str) -> Result<String, ObjError> {
    let len = get_u32(buf, context)? as usize;
    if buf.remaining() < len {
        return Err(ObjError::Truncated { context });
    }
    let mut data = vec![0u8; len];
    buf.copy_to_slice(&mut data);
    String::from_utf8(data).map_err(|_| ObjError::BadString)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectFile {
        let mut obj = ObjectFile::new("s_1.o");
        let mut text = Section::new(".text.foo", SectionKind::Text, vec![1, 2, 3, 4]);
        text.relocs.push(Reloc::new(0, RelocKind::CallPc32, "bar", -4));
        let text = obj.add_section(text);
        let meta = obj.add_section(Section::new(
            ".llvm_bb_addr_map",
            SectionKind::BbAddrMap,
            vec![9; 10],
        ));
        obj.add_symbol(Symbol::global_func("foo", text, 0, 4));
        obj.add_symbol(Symbol::local_label("foo.meta", meta, 0));
        obj
    }

    #[test]
    fn encode_decode_round_trip() {
        let obj = sample();
        let decoded = ObjectFile::decode(&obj.encode()).unwrap();
        assert_eq!(obj, decoded);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert!(matches!(
            ObjectFile::decode(&bytes),
            Err(ObjError::BadTag { context: "magic", .. })
        ));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            // Every proper prefix must fail cleanly, never panic.
            assert!(ObjectFile::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rejects_hostile_counts_without_aborting() {
        // The section count follows the magic and the length-prefixed
        // object name. A count of u32::MAX must not size an allocation.
        let obj = sample();
        let at = 4 + 4 + obj.name.len();
        let mut bytes = obj.encode();
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ObjectFile::decode(&bytes),
            Err(ObjError::Truncated { .. })
        ));
    }

    #[test]
    fn size_breakdown_classifies_kinds() {
        let b = sample().size_breakdown();
        assert_eq!(b.text, 4);
        assert_eq!(b.bb_addr_map, 10);
        assert_eq!(b.relocs, 24); // one reloc record
        assert_eq!(b.total(), 4 + 10 + 24);
    }

    #[test]
    fn content_hash_changes_with_content() {
        let a = sample();
        let mut b = sample();
        b.sections_mut()[0].bytes[0] = 0xEE;
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), sample().content_hash());
    }

    #[test]
    fn global_symbol_lookup() {
        let obj = sample();
        assert!(obj.global_symbol("foo").is_some());
        assert!(obj.global_symbol("foo.meta").is_none()); // local
        assert!(obj.global_symbol("nope").is_none());
    }

    #[test]
    fn accumulate_sums_categories() {
        let mut total = SizeBreakdown::default();
        total.accumulate(&sample().size_breakdown());
        total.accumulate(&sample().size_breakdown());
        assert_eq!(total.text, 8);
        assert_eq!(total.bb_addr_map, 20);
    }
}
