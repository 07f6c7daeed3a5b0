//! The link action.

use crate::binary::{
    FinalBlock, FinalFunctionLayout, FinalLayout, LinkStats, LinkedBinary, PlacedSection,
    SymbolPlacement,
};
use crate::error::LinkError;
use crate::ordering::SymbolOrdering;
use crate::relax::{assign_addresses, parse_sites, relax, resolve, Sec, SiteState};
use propeller_codegen::isa::op;
use propeller_codegen::DebugLayout;
use propeller_obj::{BbAddrMap, ObjectFile, RelocKind, SectionKind, SizeBreakdown, SymbolKind};
use propeller_telemetry::{SpanId, Telemetry};
use std::collections::HashMap;

/// One input to the link: an object file plus (optionally) the codegen
/// layout side table used to build the simulator's [`FinalLayout`].
#[derive(Clone, Debug)]
pub struct LinkInput {
    /// The relocatable object.
    pub object: ObjectFile,
    /// The codegen layout table for this object's functions.
    pub debug_layout: Option<DebugLayout>,
}

impl LinkInput {
    /// Wraps an object with its layout table.
    pub fn new(object: ObjectFile, debug_layout: DebugLayout) -> Self {
        LinkInput {
            object,
            debug_layout: Some(debug_layout),
        }
    }

    /// Wraps an object without layout info (its functions will be
    /// missing from the simulator's table).
    pub fn opaque(object: ObjectFile) -> Self {
        LinkInput {
            object,
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
/// with `link.ordering` / `link.relax` / `link.emit` stage children,
/// a `link.relax_iterations` counter (fixpoint sweeps), and
/// `link.deleted_jumps` / `link.shrunk_branches` counters.
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
    // Flatten sections and build the global symbol table.
    let mut secs: Vec<Sec> = Vec::new();
    let mut symtab: HashMap<String, (usize, u32)> = HashMap::new();
    let mut obj_has_relaxable: Vec<bool> = Vec::with_capacity(inputs.len());
    let mut input_bytes = 0u64;
    let mut total_relocs = 0usize;
    for (oi, input) in inputs.iter().enumerate() {
        let obj = &input.object;
        input_bytes += obj.size_breakdown().total() as u64;
        let mut has_relaxable = false;
        let sec_base = secs.len();
        for s in obj.sections() {
            total_relocs += s.relocs.len();
            has_relaxable |= s.relaxable && s.kind == SectionKind::Text;
            secs.push(Sec {
                obj_idx: oi,
                name: s.name.clone(),
                kind: s.kind,
                bytes: s.bytes.clone(),
                relocs: s.relocs.clone(),
                block_map: s.block_map.clone(),
                relaxable: s.relaxable,
                align: s.align,
                sites: Vec::new(),
                addr: 0,
            });
        }
        obj_has_relaxable.push(has_relaxable);
        for sym in obj.symbols() {
            if !sym.global {
                continue;
            }
            let gidx = sec_base + sym.section.index();
            if symtab
                .insert(sym.name.clone(), (gidx, sym.offset))
                .is_some()
            {
                return Err(LinkError::DuplicateSymbol(sym.name.clone()));
            }
        }
    }

    // Text ordering: symbol-ordering-file rank first, then input order.
    let primary_symbol: HashMap<usize, &str> = inputs
        .iter()
        .scan(0usize, |base, input| {
            let start = *base;
            *base += input.object.sections().len();
            Some((start, input))
        })
        .flat_map(|(start, input)| {
            input
                .object
                .symbols()
                .iter()
                .filter(|s| s.global && s.kind == SymbolKind::Func && s.offset == 0)
                .map(move |s| (start + s.section.index(), s.name.as_str()))
        })
        .collect();
    let mut text_order: Vec<usize> = (0..secs.len())
        .filter(|&i| secs[i].kind == SectionKind::Text)
        .collect();
    {
        let _ordering_span = tel.span_under("link.ordering", link_id);
        if let Some(order) = &opts.symbol_order {
            text_order.sort_by_key(|&i| {
                let rank = primary_symbol
                    .get(&i)
                    .and_then(|name| order.rank(name))
                    .unwrap_or(usize::MAX);
                (rank, i)
            });
        }
    }

    // Relaxation.
    let (deleted, shrunk) = if opts.relax {
        let _relax_span = tel.span_under("link.relax", link_id);
        for s in secs.iter_mut() {
            if s.relaxable && s.kind == SectionKind::Text {
                let section = propeller_obj::Section {
                    name: s.name.clone(),
                    kind: s.kind,
                    bytes: s.bytes.clone(),
                    relocs: s.relocs.clone(),
                    align: s.align,
                    block_map: s.block_map.clone(),
                    relaxable: true,
                };
                s.sites = parse_sites(&section)?;
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
    let image_end = secs
        .iter()
        .filter(|s| s.kind.is_loaded())
        .map(|s| s.addr + s.final_size() as u64)
        .max()
        .unwrap_or(opts.base);

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
    for i in 0..secs.len() {
        if !secs[i].kind.is_loaded() {
            continue;
        }
        emit_section(&mut image, &secs, i, &symtab, inputs)?;
    }
    drop(emit_span);

    // Build the output symbol map.
    let mut symbols = HashMap::with_capacity(symtab.len());
    for (name, &(sec_idx, off)) in &symtab {
        let sec = &secs[sec_idx];
        symbols.insert(name.clone(), sec.addr + sec.new_offset(off) as u64);
    }

    // Merge metadata and compute the size breakdown.
    let mut bb_addr_map = BbAddrMap::default();
    let mut breakdown = SizeBreakdown {
        text: (text_end - opts.base) as usize,
        ..SizeBreakdown::default()
    };
    for s in &secs {
        match s.kind {
            SectionKind::Text => {}
            SectionKind::EhFrame => breakdown.eh_frame += s.bytes.len(),
            SectionKind::BbAddrMap => {
                if opts.strip_bb_addr_map {
                    continue;
                }
                if opts.drop_cold_bb_addr_map && !obj_has_relaxable[s.obj_idx] {
                    continue;
                }
                let decoded =
                    BbAddrMap::decode(&s.bytes).map_err(|e| LinkError::BadMetadata {
                        object: inputs[s.obj_idx].object.name.clone(),
                        detail: e.to_string(),
                    })?;
                bb_addr_map.merge(decoded);
            }
            SectionKind::Rela => breakdown.relocs += s.bytes.len(),
            SectionKind::RoData | SectionKind::DebugRanges | SectionKind::Other => {
                breakdown.other += s.bytes.len()
            }
        }
    }
    breakdown.bb_addr_map = bb_addr_map.encode().len();
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
            let mut blocks = Vec::new();
            for frag in &fl.fragments {
                let &(sec_idx, sym_off) =
                    symtab
                        .get(&frag.section_symbol)
                        .ok_or_else(|| LinkError::UndefinedSymbol {
                            symbol: frag.section_symbol.clone(),
                            object: input.object.name.clone(),
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
            for site in &s.sites {
                match site.state {
                    SiteState::Deleted => deleted_jumps += 1,
                    SiteState::Short => shrunk_branches += 1,
                    SiteState::Long => {}
                }
            }
            SymbolPlacement {
                symbol: primary_symbol
                    .get(&i)
                    .map_or_else(|| s.name.clone(), |n| (*n).to_string()),
                order: pos as u32,
                addr: s.addr,
                input_size: s.bytes.len() as u64,
                final_size: s.final_size() as u64,
                deleted_jumps,
                shrunk_branches,
            }
        })
        .collect();

    let placed = secs
        .iter()
        .map(|s| PlacedSection {
            name: s.name.clone(),
            kind: s.kind,
            addr: s.addr,
            size: s.final_size() as u64,
        })
        .collect();

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

/// Emits one loaded section into the image, applying relocations and
/// relaxation decisions.
fn emit_section(
    image: &mut [u8],
    secs: &[Sec],
    idx: usize,
    symtab: &HashMap<String, (usize, u32)>,
    inputs: &[LinkInput],
) -> Result<(), LinkError> {
    let sec = &secs[idx];
    let obj_name = &inputs[sec.obj_idx].object.name;
    // The image covers [base, image_end); translate by the smallest
    // loaded address, which is the link base.
    //
    // Infallible: `emit_section` is only called with the index of a
    // loaded section (the caller iterates the loaded set), so the
    // filtered iterator contains at least `secs[idx]` itself.
    let min_addr = secs
        .iter()
        .filter(|s| s.kind.is_loaded())
        .map(|s| s.addr)
        .min()
        .expect("at least one loaded section");
    let start = (sec.addr - min_addr) as usize;

    if sec.sites.is_empty() {
        // Copy and patch in place.
        let end = start + sec.bytes.len();
        image[start..end].copy_from_slice(&sec.bytes);
        for r in &sec.relocs {
            let target = resolve(secs, symtab, &r.symbol, r.addend, obj_name)?;
            patch(
                image,
                start + r.offset as usize,
                r.kind,
                target,
                sec.addr + r.offset as u64,
                &r.symbol,
            )?;
        }
    } else {
        // Rebuild: walk original bytes around the relaxed branch sites.
        let mut out = Vec::with_capacity(sec.bytes.len());
        let mut cursor = 0usize;
        for site in &sec.sites {
            out.extend_from_slice(&sec.bytes[cursor..site.inst_start as usize]);
            let target = resolve(secs, symtab, &site.symbol, site.addend, obj_name)?;
            let inst_addr = sec.addr + out.len() as u64;
            match site.state {
                SiteState::Deleted => {}
                SiteState::Short => {
                    let disp = target as i64 - (inst_addr as i64 + 2);
                    let d8 = i8::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                        symbol: site.symbol.clone(),
                    })?;
                    out.push(if site.cond { op::BR_SHORT } else { op::JMP_SHORT });
                    out.push(d8 as u8);
                }
                SiteState::Long => {
                    let disp = target as i64 - (inst_addr as i64 + site.orig_len as i64);
                    let d32 = i32::try_from(disp).map_err(|_| LinkError::DisplacementOverflow {
                        symbol: site.symbol.clone(),
                    })?;
                    if site.cond {
                        out.extend_from_slice(&[op::BR_LONG, 0]);
                    } else {
                        out.push(op::JMP_LONG);
                    }
                    out.extend_from_slice(&d32.to_le_bytes());
                }
            }
            cursor = (site.inst_start + site.orig_len) as usize;
        }
        out.extend_from_slice(&sec.bytes[cursor..]);
        debug_assert_eq!(out.len(), sec.final_size() as usize);
        // Patch the remaining (non-branch) relocations at their moved
        // offsets.
        for r in &sec.relocs {
            if r.kind == RelocKind::BranchPc32 {
                continue;
            }
            let target = resolve(secs, symtab, &r.symbol, r.addend, obj_name)?;
            let new_off = sec.new_offset(r.offset) as usize;
            let field_addr = sec.addr + new_off as u64;
            patch(&mut out, new_off, r.kind, target, field_addr, &r.symbol)?;
        }
        let end = start + out.len();
        image[start..end].copy_from_slice(&out);
    }
    Ok(())
}

fn patch(
    image: &mut [u8],
    pos: usize,
    kind: RelocKind,
    target: u64,
    field_addr: u64,
    symbol: &str,
) -> Result<(), LinkError> {
    let width = kind.width();
    let slice = &mut image[pos..pos + width];
    write_field(slice, kind, target, field_addr, symbol)
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
