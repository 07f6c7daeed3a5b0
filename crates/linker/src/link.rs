//! The link action.
//!
//! Every stage is linear in the input, apart from the sort by ordering
//! rank: sections are borrowed from the shared inputs (never copied),
//! the symbol table borrows its names, and post-relaxation offsets come
//! from one table per section, so a query costs O(log sites).

use crate::binary::{
    FinalBlock, FinalFunctionLayout, FinalLayout, LinkStats, LinkedBinary, PlacedSection,
    SymbolPlacement,
};
use crate::error::LinkError;
use crate::ordering::SymbolOrdering;
use crate::relax::{assign_addresses, parse_sites, relax, resolve, Sec, SiteState, SymTab};
use propeller_codegen::isa::op;
use propeller_codegen::DebugLayout;
use propeller_obj::{
    BbAddrMap, ObjectFile, Reloc, RelocKind, Section, SectionKind, SizeBreakdown, SymbolKind,
};
use propeller_telemetry::{SpanId, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;

/// One input to the link: an object file plus (optionally) the codegen
/// layout side table used to build the simulator's [`FinalLayout`].
///
/// Both are shared, so handing a cached codegen result to the linker
/// bumps a reference count instead of copying the object.
#[derive(Clone, Debug)]
pub struct LinkInput {
    /// The relocatable object.
    pub object: Arc<ObjectFile>,
    /// The codegen layout table for this object's functions.
    pub debug_layout: Option<Arc<DebugLayout>>,
}

impl LinkInput {
    /// Wraps an object with its layout table.
    pub fn new(
        object: impl Into<Arc<ObjectFile>>,
        debug_layout: impl Into<Arc<DebugLayout>>,
    ) -> Self {
        LinkInput {
            object: object.into(),
            debug_layout: Some(debug_layout.into()),
        }
    }

    /// Wraps an object without layout info (its functions will be
    /// missing from the simulator's table).
    pub fn opaque(object: impl Into<Arc<ObjectFile>>) -> Self {
        LinkInput {
            object: object.into(),
            debug_layout: None,
        }
    }
}

/// Options for one link action.
#[derive(Clone, Debug)]
pub struct LinkOptions {
    /// Output binary name.
    pub output_name: String,
    /// Global text layout (the `ld_prof.txt` symbol ordering file);
    /// `None` keeps input order.
    pub symbol_order: Option<SymbolOrdering>,
    /// Run the §4.2 relaxation pass over relaxable sections.
    pub relax: bool,
    /// Drop `.llvm_bb_addr_map` sections coming from objects with no
    /// relaxable text ("Any address map metadata sections in the cold
    /// native objects are dropped by the linker", §3.4).
    pub drop_cold_bb_addr_map: bool,
    /// Drop all `.llvm_bb_addr_map` sections (baseline builds).
    pub strip_bb_addr_map: bool,
    /// Retain static relocations in the output as a `.rela` section
    /// (the "BM" metadata binary BOLT-style rewriters require, §5.3).
    pub retain_relocs: bool,
    /// Base virtual address.
    pub base: u64,
}

impl Default for LinkOptions {
    fn default() -> Self {
        LinkOptions {
            output_name: "a.out".into(),
            symbol_order: None,
            relax: false,
            drop_cold_bb_addr_map: false,
            strip_bb_addr_map: false,
            retain_relocs: false,
            base: 0x40_0000,
        }
    }
}

/// Links objects into a binary.
///
/// # Errors
///
/// Returns [`LinkError`] on duplicate or undefined global symbols,
/// displacement overflow, undecodable metadata, or relaxation failure.
pub fn link(inputs: &[LinkInput], opts: &LinkOptions) -> Result<LinkedBinary, LinkError> {
    link_traced(inputs, opts, &Telemetry::disabled(), None)
}

/// [`link`], plus telemetry: a `link:<output>` span under `parent`
/// with `link.inputs` / `link.ordering` / `link.relax` / `link.emit` /
/// `link.metadata` stage children, a `link.relax_iterations` counter
/// (fixpoint sweeps), and `link.deleted_jumps` / `link.shrunk_branches`
/// counters.
///
/// # Errors
///
/// Same as [`link`].
pub fn link_traced(
    inputs: &[LinkInput],
    opts: &LinkOptions,
    tel: &Telemetry,
    parent: Option<SpanId>,
) -> Result<LinkedBinary, LinkError> {
    let mut link_span = tel.span_under(format!("link:{}", opts.output_name), parent);
    let link_id = link_span.id();
    let bin = link_impl(inputs, opts, tel, link_id)?;
    link_span.set_peak_bytes(bin.stats.modeled_peak_memory);
    Ok(bin)
}

fn link_impl(
    inputs: &[LinkInput],
    opts: &LinkOptions,
    tel: &Telemetry,
    link_id: Option<SpanId>,
) -> Result<LinkedBinary, LinkError> {
    // Flatten sections, check relocation bounds and build the global
    // symbol table.
    let inputs_span = tel.span_under("link.inputs", link_id);
    let objects = || inputs.iter().map(|i| &*i.object);
    let mut secs: Vec<Sec> = Vec::with_capacity(objects().map(|o| o.sections().len()).sum());
    let mut symtab: SymTab = HashMap::with_capacity(objects().map(|o| o.symbols().len()).sum());
    // Text section index -> the global function symbol at its start.
    let mut primary_symbol: HashMap<usize, &str> = HashMap::new();
    let mut obj_has_relaxable: Vec<bool> = Vec::with_capacity(inputs.len());
    let mut input_bytes = 0u64;
    let mut total_relocs = 0usize;
    for (oi, input) in inputs.iter().enumerate() {
        let obj = &*input.object;
        input_bytes += obj.size_breakdown().total() as u64;
        let mut has_relaxable = false;
        let sec_base = secs.len();
        for s in obj.sections() {
            check_reloc_bounds(&obj.name, s)?;
            total_relocs += s.relocs.len();
            has_relaxable |= s.relaxable && s.kind == SectionKind::Text;
            secs.push(Sec::new(oi, s));
        }
        obj_has_relaxable.push(has_relaxable);
        for sym in obj.symbols() {
            if !sym.global {
                continue;
            }
            let gidx = sec_base + sym.section.index();
            if symtab.insert(&sym.name, (gidx, sym.offset)).is_some() {
                return Err(LinkError::DuplicateSymbol(sym.name.clone()));
            }
            if sym.kind == SymbolKind::Func && sym.offset == 0 {
                primary_symbol.insert(gidx, &sym.name);
            }
        }
    }
    drop(inputs_span);

    // Text ordering: symbol-ordering-file rank first, then input order.
    let text_order = {
        let _ordering_span = tel.span_under("link.ordering", link_id);
        let mut text_order: Vec<usize> = (0..secs.len())
            .filter(|&i| secs[i].section.kind == SectionKind::Text)
            .collect();
        if let Some(order) = &opts.symbol_order {
            text_order.sort_by_cached_key(|&i| {
                let rank = primary_symbol
                    .get(&i)
                    .and_then(|name| order.rank(name))
                    .unwrap_or(usize::MAX);
                (rank, i)
            });
        }
        text_order
    };

    // Relaxation.
    let (deleted, shrunk) = if opts.relax {
        let _relax_span = tel.span_under("link.relax", link_id);
        for s in secs.iter_mut() {
            if s.section.relaxable && s.section.kind == SectionKind::Text {
                s.set_sites(parse_sites(s.section)?);
            }
        }
        let (deleted, shrunk, iters) = relax(&mut secs, &text_order, &symtab, opts.base)?;
        if tel.is_enabled() {
            tel.counter_add("link.relax_iterations", iters);
            tel.counter_add("link.deleted_jumps", deleted);
            tel.counter_add("link.shrunk_branches", shrunk);
        }
        (deleted, shrunk)
    } else {
        (0, 0)
    };

    let text_end = assign_addresses(&mut secs, &text_order, opts.base);
    let loaded = || secs.iter().filter(|s| s.section.kind.is_loaded());
    let image_end = loaded()
        .map(|s| s.addr + s.final_size() as u64)
        .max()
        .unwrap_or(opts.base);
    // The image covers [base, image_end); sections are placed relative
    // to the smallest loaded address, which is the link base.
    let min_addr = loaded().map(|s| s.addr).min().unwrap_or(opts.base);

    // Emit the image.
    let emit_span = tel.span_under("link.emit", link_id);
    let mut image = vec![op::NOP; (image_end - opts.base) as usize];
    let mut padding = 0u64;
    {
        // Account padding between text sections.
        let mut prev_end = opts.base;
        for &i in &text_order {
            padding += secs[i].addr - prev_end;
            prev_end = secs[i].addr + secs[i].final_size() as u64;
        }
    }
    for sec in loaded() {
        let start = (sec.addr - min_addr) as usize;
        let dst = &mut image[start..start + sec.final_size() as usize];
        emit_section(dst, &secs, sec, &symtab, &inputs[sec.obj_idx].object.name)?;
    }
    drop(emit_span);

    // Build the output symbol map.
    let metadata_span = tel.span_under("link.metadata", link_id);
    let symbols = symtab
        .iter()
        .map(|(&name, &(sec_idx, off))| {
            let sec = &secs[sec_idx];
            (name.to_string(), sec.addr + sec.new_offset(off) as u64)
        })
        .collect();

    // Merge metadata and compute the size breakdown.
    let mut bb_addr_map = BbAddrMap::default();
    let mut breakdown = SizeBreakdown {
        text: (text_end - opts.base) as usize,
        ..SizeBreakdown::default()
    };
    for s in &secs {
        let len = s.section.bytes.len();
        match s.section.kind {
            SectionKind::Text => {}
            SectionKind::EhFrame => breakdown.eh_frame += len,
            SectionKind::BbAddrMap => {
                if opts.strip_bb_addr_map {
                    continue;
                }
                if opts.drop_cold_bb_addr_map && !obj_has_relaxable[s.obj_idx] {
                    continue;
                }
                let decoded =
                    BbAddrMap::decode(&s.section.bytes).map_err(|e| LinkError::BadMetadata {
                        object: inputs[s.obj_idx].object.name.clone(),
                        detail: e.to_string(),
                    })?;
                bb_addr_map.merge(decoded);
            }
            SectionKind::Rela => breakdown.relocs += len,
            SectionKind::RoData | SectionKind::DebugRanges | SectionKind::Other => {
                breakdown.other += len
            }
        }
    }
    breakdown.bb_addr_map = bb_addr_map.encoded_len();
    if bb_addr_map.functions.is_empty() {
        breakdown.bb_addr_map = 0;
    }
    if opts.retain_relocs {
        breakdown.relocs += total_relocs * 24;
    }

    // Final per-block layout.
    let mut layout = FinalLayout::default();
    for input in inputs {
        let Some(dl) = &input.debug_layout else {
            continue;
        };
        for fl in &dl.functions {
            let mut blocks = Vec::with_capacity(fl.fragments.iter().map(|f| f.blocks.len()).sum());
            for frag in &fl.fragments {
                let &(sec_idx, sym_off) =
                    symtab.get(frag.section_symbol.as_str()).ok_or_else(|| {
                        LinkError::UndefinedSymbol {
                            symbol: frag.section_symbol.clone(),
                            object: input.object.name.clone(),
                        }
                    })?;
                debug_assert_eq!(sym_off, 0, "fragment symbols name section starts");
                let sec = &secs[sec_idx];
                for p in &frag.blocks {
                    let start = sec.new_offset(p.offset);
                    let end = sec.new_offset(p.offset + p.size);
                    blocks.push(FinalBlock {
                        block: p.block,
                        addr: sec.addr + start as u64,
                        size: end - start,
                    });
                }
            }
            layout.functions.push(FinalFunctionLayout {
                function: fl.function,
                func_symbol: fl.func_symbol.clone(),
                blocks,
            });
        }
    }

    // Per-symbol placement provenance: where each text section landed
    // in the final order, and what relaxation did to its bytes.
    let placements = text_order
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let s = &secs[i];
            let mut deleted_jumps = 0u32;
            let mut shrunk_branches = 0u32;
            for site in s.sites() {
                match site.state {
                    SiteState::Deleted => deleted_jumps += 1,
                    SiteState::Short => shrunk_branches += 1,
                    SiteState::Long => {}
                }
            }
            SymbolPlacement {
                symbol: primary_symbol
                    .get(&i)
                    .map_or_else(|| s.section.name.clone(), |n| (*n).to_string()),
                order: pos as u32,
                addr: s.addr,
                input_size: s.section.bytes.len() as u64,
                final_size: s.final_size() as u64,
                deleted_jumps,
                shrunk_branches,
            }
        })
        .collect();

    let placed = secs
        .iter()
        .map(|s| PlacedSection {
            name: s.section.name.clone(),
            kind: s.section.kind,
            addr: s.addr,
            size: s.final_size() as u64,
        })
        .collect();
    drop(metadata_span);

    let stats = LinkStats {
        input_bytes,
        text_bytes: (text_end - opts.base),
        padding_bytes: padding,
        deleted_jumps: deleted,
        shrunk_branches: shrunk,
        modeled_peak_memory: 2 * input_bytes,
    };

    Ok(LinkedBinary {
        name: opts.output_name.clone(),
        base: opts.base,
        image,
        text_start: opts.base,
        text_end,
        sections: placed,
        symbols,
        bb_addr_map,
        size_breakdown: breakdown,
        layout,
        placements,
        stats,
    })
}

/// Rejects a relocation whose field runs past its section: applied
/// blindly, it would overwrite the next section's bytes in the image.
fn check_reloc_bounds(object: &str, s: &Section) -> Result<(), LinkError> {
    match s
        .relocs
        .iter()
        .find(|r| r.offset as usize + r.kind.width() > s.bytes.len())
    {
        Some(r) => Err(reloc_overrun(
            object,
            &s.name,
            r,
            r.offset as usize,
            s.bytes.len(),
        )),
        None => Ok(()),
    }
}

fn reloc_overrun(object: &str, section: &str, r: &Reloc, at: usize, len: usize) -> LinkError {
    LinkError::BadMetadata {
        object: object.to_string(),
        detail: format!(
            "{:?} relocation against {:?} at offset {at} overruns the {len}-byte section {section}",
            r.kind, r.symbol
        ),
    }
}

/// Emits one loaded section into `dst` (exactly its final-size slot in
/// the image), applying relocations and relaxation decisions.
fn emit_section(
    dst: &mut [u8],
    secs: &[Sec],
    sec: &Sec,
    symtab: &SymTab,
    obj_name: &str,
) -> Result<(), LinkError> {
    let bytes = &sec.section.bytes;
    if sec.sites().is_empty() {
        // Copy and patch in place; the fields were bounds-checked when
        // the inputs were flattened.
        dst.copy_from_slice(bytes);
        for r in &sec.section.relocs {
            let target = resolve(secs, symtab, &r.symbol, r.addend, obj_name)?;
            let at = r.offset as usize;
            let field_addr = sec.addr + r.offset as u64;
            write_field(
                &mut dst[at..at + r.kind.width()],
                r.kind,
                target,
                field_addr,
                &r.symbol,
            )?;
        }
        return Ok(());
    }

    // Rebuild: walk original bytes around the relaxed branch sites.
    let mut w = 0usize;
    let mut put = |w: &mut usize, b: &[u8]| {
        dst[*w..*w + b.len()].copy_from_slice(b);
        *w += b.len();
    };
    let mut cursor = 0usize;
    for site in sec.sites() {
        put(&mut w, &bytes[cursor..site.inst_start as usize]);
        let target = resolve(secs, symtab, site.symbol, site.addend, obj_name)?;
        let inst_addr = sec.addr + w as u64;
        match site.state {
            SiteState::Deleted => {}
            SiteState::Short => {
                let disp = target as i64 - (inst_addr as i64 + 2);
                let d8 = i8::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                    symbol: site.symbol.to_string(),
                })?;
                let opcode = if site.cond {
                    op::BR_SHORT
                } else {
                    op::JMP_SHORT
                };
                put(&mut w, &[opcode, d8 as u8]);
            }
            SiteState::Long => {
                let disp = target as i64 - (inst_addr as i64 + site.orig_len as i64);
                let d32 = i32::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                    symbol: site.symbol.to_string(),
                })?;
                if site.cond {
                    put(&mut w, &[op::BR_LONG, 0]);
                } else {
                    put(&mut w, &[op::JMP_LONG]);
                }
                put(&mut w, &d32.to_le_bytes());
            }
        }
        cursor = site.end() as usize;
    }
    put(&mut w, &bytes[cursor..]);
    debug_assert_eq!(w, dst.len());
    // Patch the remaining (non-branch) relocations at their moved
    // offsets, which relaxation may have pushed past the section end.
    let len = dst.len();
    for r in &sec.section.relocs {
        if r.kind == RelocKind::BranchPc32 {
            continue;
        }
        let target = resolve(secs, symtab, &r.symbol, r.addend, obj_name)?;
        let at = sec.new_offset(r.offset) as usize;
        let field = dst
            .get_mut(at..at + r.kind.width())
            .ok_or_else(|| reloc_overrun(obj_name, &sec.section.name, r, at, len))?;
        write_field(field, r.kind, target, sec.addr + at as u64, &r.symbol)?;
    }
    Ok(())
}

fn write_field(
    slice: &mut [u8],
    kind: RelocKind,
    target: u64,
    field_addr: u64,
    symbol: &str,
) -> Result<(), LinkError> {
    match kind {
        RelocKind::CallPc32 | RelocKind::BranchPc32 => {
            let disp = target as i64 - (field_addr as i64 + 4);
            let d = i32::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                symbol: symbol.to_string(),
            })?;
            slice.copy_from_slice(&d.to_le_bytes());
        }
        RelocKind::BranchPc8 => {
            let disp = target as i64 - (field_addr as i64 + 1);
            let d = i8::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                symbol: symbol.to_string(),
            })?;
            slice.copy_from_slice(&[d as u8]);
        }
        RelocKind::Abs64 => slice.copy_from_slice(&target.to_le_bytes()),
    }
    Ok(())
}
