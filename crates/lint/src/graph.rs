//! Phase-two analysis: a zero-dependency symbol extractor over the
//! sanitized source that builds a per-function view of the workspace —
//! definitions, intra-workspace calls, and outbound-RPC sites — and the
//! two graph/dataflow rules that run on it (DESIGN.md §17):
//!
//! * **L005** — transitive handler deadlock: a blocking RPC
//!   (`.call(` / `.call_many(` / `call_typed(`) reachable through any
//!   chain of helper calls from a server-handler or pump entry point.
//!   L001 only sees hazards inside one function; this closes the gap the
//!   replica-service deadlock discipline leaves once a handler calls a
//!   helper.
//! * **L008** — unbounded state growth: a long-lived map/set struct
//!   field with a reachable insert path but no prune path reachable
//!   from the cleanup roots (`maintain`/`forget`/`detach`/…) and no
//!   self-bounding eviction co-located with an insert.
//!
//! Everything here works on the same sanitized text as L001–L003:
//! comments and string literals are blanked, so patterns in docs or
//! strings never produce symbols, and `#[cfg(test)]` regions are masked
//! out of both definitions and call sites.

use crate::{ident_after, is_ident_byte, line_of, Config, FileCtx, Finding, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// ---------------------------------------------------------------------------
// Symbol extraction
// ---------------------------------------------------------------------------

/// One function definition found in a file.
#[derive(Debug, Clone)]
pub(crate) struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` block's type name, if any.
    pub impl_ty: Option<String>,
    /// Enclosing `impl <Trait> for <Type>` trait name, if any.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub def_line: usize,
    /// Byte span of the body, including the outer braces.
    pub body: (usize, usize),
}

/// Matches the closing brace for the `{` at `open`.
fn close_of(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == b'{' {
            depth += 1;
        } else if b == b'}' {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    bytes.len()
}

/// Last path segment of something like `kosha_rpc::PumpHook<T>`.
fn last_segment(path: &str) -> String {
    let trimmed = path.trim();
    let no_generics = trimmed.split('<').next().unwrap_or(trimmed);
    no_generics
        .rsplit("::")
        .next()
        .unwrap_or(no_generics)
        .trim()
        .to_string()
}

/// An `impl` block: `impl Type { .. }` or `impl Trait for Type { .. }`.
#[derive(Debug)]
struct ImplSpan {
    ty: String,
    trait_name: Option<String>,
    body: (usize, usize),
}

fn impl_spans(text: &str) -> Vec<ImplSpan> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for pos in crate::find_all(text, "impl") {
        // `impl` must be followed by whitespace or `<` (generic params).
        match bytes.get(pos + 4) {
            Some(b' ') | Some(b'\n') | Some(b'<') => {}
            _ => continue,
        }
        let mut k = pos + 4;
        // Skip generic parameter list `impl<T: Bound> ...`.
        if bytes.get(k) == Some(&b'<') {
            let mut depth = 0i32;
            while k < bytes.len() {
                match bytes[k] {
                    b'<' => depth += 1,
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        let Some(open_rel) = text[k..].find('{') else {
            continue;
        };
        let open = k + open_rel;
        let header = &text[k..open];
        // `where` clauses end the useful part of the header.
        let header = header.split(" where ").next().unwrap_or(header);
        let (trait_name, ty) = match header.find(" for ") {
            Some(at) => (
                Some(last_segment(&header[..at])),
                last_segment(&header[at + 5..]),
            ),
            None => (None, last_segment(header)),
        };
        if ty.is_empty() {
            continue;
        }
        out.push(ImplSpan {
            ty,
            trait_name,
            body: (open, close_of(bytes, open)),
        });
    }
    out
}

/// Extracts every function definition in (sanitized) `text`.
pub(crate) fn extract_fns(text: &str) -> Vec<FnInfo> {
    let bytes = text.as_bytes();
    let impls = impl_spans(text);
    let mut out = Vec::new();
    for pos in crate::find_all(text, "fn ") {
        let Some((name, after)) = ident_after(text, pos + 3) else {
            continue;
        };
        // Find the body `{` at paren depth 0 (or `;` for a bare
        // declaration, which has no body to analyze).
        let mut k = after;
        let mut paren = 0i32;
        let mut open = None;
        while k < bytes.len() {
            match bytes[k] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => {
                    open = Some(k);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else { continue };
        let body = (open, close_of(bytes, open));
        let enclosing = impls
            .iter()
            .filter(|i| i.body.0 < pos && pos < i.body.1)
            .min_by_key(|i| i.body.1 - i.body.0);
        out.push(FnInfo {
            name,
            impl_ty: enclosing.map(|i| i.ty.clone()),
            trait_name: enclosing.and_then(|i| i.trait_name.clone()),
            def_line: line_of(bytes, pos),
            body,
        });
    }
    out
}

/// How a call site addresses its callee — used to narrow resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Receiver {
    /// `self.f(..)` — prefer methods of the caller's own impl type.
    SelfDot,
    /// `x.f(..)`, `a.b.f(..)` — any method.
    Other,
    /// `f(..)`, `path::f(..)` — free function or associated call.
    Path,
}

/// One `name(` call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub name: String,
    pub pos: usize,
    pub receiver: Receiver,
}

const KEYWORDS: [&str; 13] = [
    "if", "match", "while", "for", "loop", "return", "fn", "let", "else", "move", "in", "as",
    "unsafe",
];

/// Extracts call sites within `text[span]`. Definitions (`fn name(`) and
/// macro invocations (`name!(`) are excluded.
pub(crate) fn call_sites(text: &str, span: (usize, usize)) -> Vec<CallSite> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = span.0;
    while i < span.1.min(bytes.len()) {
        if !is_ident_byte(bytes[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < span.1 && is_ident_byte(bytes[i]) {
            i += 1;
        }
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        let name = &text[start..i];
        if name.is_empty() || name.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is the definition, not a call.
        if start >= 3 && &text[start - 3..start] == "fn " {
            continue;
        }
        let receiver = if start > 0 && bytes[start - 1] == b'.' {
            // Token before the dot decides self vs other receiver.
            let e = start - 1;
            let mut s = e;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            // `self.f(` only (not `x.selfish.f(`): the char before
            // `self` must not be a dot.
            if &text[s..e] == "self" && (s == 0 || bytes[s - 1] != b'.') {
                Receiver::SelfDot
            } else {
                Receiver::Other
            }
        } else {
            Receiver::Path
        };
        out.push(CallSite {
            name: name.to_string(),
            pos: start,
            receiver,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// The workspace model
// ---------------------------------------------------------------------------

/// Per-file record the workspace phase operates on. Built once per file
/// by [`crate::lint_files`] and shared by L005–L008.
pub(crate) struct FileUnit<'a> {
    pub ctx: FileCtx<'a>,
    pub fns: Vec<FnInfo>,
}

/// Global function id: (file index, fn index).
type FnId = (usize, usize);

pub(crate) struct Workspace<'a> {
    pub files: &'a [FileUnit<'a>],
    /// name → every definition with that name (non-test only).
    by_name: BTreeMap<&'a str, Vec<FnId>>,
}

impl<'a> Workspace<'a> {
    pub fn build(files: &'a [FileUnit<'a>]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, g) in f.fns.iter().enumerate() {
                if f.ctx.in_test(g.def_line) {
                    continue;
                }
                by_name.entry(g.name.as_str()).or_default().push((fi, gi));
            }
        }
        Workspace { files, by_name }
    }

    fn fninfo(&self, id: FnId) -> &FnInfo {
        &self.files[id.0].fns[id.1]
    }

    /// Resolves one call site in `caller` to workspace definitions.
    /// `self.f(` calls resolve to the caller's own impl type (impls of
    /// one type span files, so the whole workspace is consulted). Every
    /// other shape — `x.f(`, `path::f(` — is followed only when `f` has
    /// exactly one definition in the workspace: generic method names
    /// (`read`, `call`, `new`, `handle`, …) collide across crates, and
    /// an ambiguous edge produces meaningless cross-crate paths, which
    /// is worse for this analyzer than a skipped edge. Project-specific
    /// helper names (`handle_control`, `mirror_op`, `hot_invalidate`)
    /// are unique, which is what the disciplines L005/L008 guard hang
    /// off.
    fn resolve(&self, caller: FnId, call: &CallSite) -> Vec<FnId> {
        let Some(all) = self.by_name.get(call.name.as_str()) else {
            return Vec::new();
        };
        if call.receiver == Receiver::SelfDot {
            if let Some(ty) = &self.fninfo(caller).impl_ty {
                let own: Vec<FnId> = all
                    .iter()
                    .copied()
                    .filter(|id| self.fninfo(*id).impl_ty.as_deref() == Some(ty))
                    .collect();
                if !own.is_empty() {
                    return own;
                }
            }
        }
        if all.len() == 1 {
            return all.clone();
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// L005: transitive handler deadlock
// ---------------------------------------------------------------------------

/// Entry points: every non-test function inside an
/// `impl <entry trait> for <Type>` block, plus functions named in
/// [`Config::l005_extra_roots`]. An L005 waiver comment on (or one line
/// above) the entry's `fn` line waives the whole entry — the in-place
/// justification for a *designed* nesting level — and traversal from
/// other entries stops at it too, so a sibling entry that only
/// delegates to it (`handle` copying its slice into a frame for
/// `handle_frame`) needs no waiver of its own. A waiver on a call line
/// cuts traversal through that edge only; a waiver on the RPC line
/// accepts that one sink.
pub(crate) fn check_l005(ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    // Collect entries in deterministic (file, fn) order.
    let mut entries: Vec<FnId> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if f.ctx.in_test(g.def_line) {
                continue;
            }
            let by_trait = g
                .trait_name
                .as_deref()
                .is_some_and(|t| cfg.l005_entry_traits.iter().any(|e| e == t));
            let by_name = cfg.l005_extra_roots.iter().any(|r| r == &g.name);
            if by_trait || by_name {
                entries.push((fi, gi));
            }
        }
    }

    // Entry-level waivers: the whole designed nesting is justified in
    // place at the `fn` line.
    let waived: BTreeSet<FnId> = entries
        .iter()
        .copied()
        .filter(|&e| {
            ws.files[e.0]
                .ctx
                .consume_allow(Rule::L005, ws.fninfo(e).def_line)
        })
        .collect();

    // Findings keyed by sink site so one risky call is reported once
    // even when several entries reach it.
    let mut findings: BTreeMap<(usize, usize), Finding> = BTreeMap::new();

    for entry in entries {
        if waived.contains(&entry) {
            continue;
        }
        let ef = &ws.files[entry.0];
        let eg = ws.fninfo(entry);
        let entry_label = match &eg.impl_ty {
            Some(t) => format!("{t}::{}", eg.name),
            None => eg.name.clone(),
        };
        // BFS with parent links for shortest-path reconstruction.
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        parent.insert(entry, entry);
        queue.push_back(entry);
        while let Some(cur) = queue.pop_front() {
            let file = &ws.files[cur.0];
            let info = ws.fninfo(cur);
            let text = file.ctx.text;
            let bytes = text.as_bytes();
            // Sinks in this function.
            for pat in crate::CALL_PATS {
                for pos in crate::find_all(text, pat) {
                    if pos <= info.body.0 || pos >= info.body.1 {
                        continue;
                    }
                    let line = line_of(bytes, pos);
                    if file.ctx.in_test(line) {
                        continue;
                    }
                    let key = (cur.0, pos);
                    if findings.contains_key(&key) {
                        continue;
                    }
                    if file.ctx.consume_allow(Rule::L005, line) {
                        continue;
                    }
                    // Reconstruct entry → … → cur.
                    let mut chain = vec![info.name.clone()];
                    let mut walk = cur;
                    while walk != entry {
                        walk = parent[&walk];
                        chain.push(ws.fninfo(walk).name.clone());
                    }
                    chain.reverse();
                    findings.insert(
                        key,
                        Finding {
                            rule: Rule::L005,
                            file: file.ctx.path.to_string(),
                            line,
                            message: format!(
                                "blocking RPC reachable from handler/pump entry `{entry_label}` \
                                 ({}:{}) via {}; server handlers must stay RPC-free — move the \
                                 call off the handler path or waive the entry/edge in place",
                                ef.ctx.path,
                                eg.def_line,
                                chain.join(" -> "),
                            ),
                        },
                    );
                }
            }
            // Traverse call edges.
            for call in call_sites(text, info.body) {
                let line = line_of(bytes, call.pos);
                if file.ctx.in_test(line) {
                    continue;
                }
                let targets = ws.resolve(cur, &call);
                if targets.is_empty() {
                    continue;
                }
                // Edge waiver: an allow on the call line prunes the
                // traversal through this hand-off.
                if file.ctx.consume_allow(Rule::L005, line) {
                    continue;
                }
                for t in targets {
                    if waived.contains(&t) {
                        continue;
                    }
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(t) {
                        e.insert(cur);
                        queue.push_back(t);
                    }
                }
            }
        }
    }
    out.extend(findings.into_values());
}

// ---------------------------------------------------------------------------
// L008: unbounded state growth
// ---------------------------------------------------------------------------

const GROWABLE_TYPES: [&str; 4] = ["HashMap<", "BTreeMap<", "HashSet<", "BTreeSet<"];
const INSERT_METHODS: [&str; 2] = [".insert(", ".entry("];
const PRUNE_METHODS: [&str; 8] = [
    ".remove(",
    ".retain(",
    ".clear(",
    ".drain(",
    ".pop_first(",
    ".pop_last(",
    ".split_off(",
    ".take()",
];
/// Guard hops allowed between a field name and its method call
/// (`self.hot.lock().insert(..)`).
const GUARD_HOPS: [&str; 3] = [".lock()", ".read()", ".write()"];

#[derive(Debug)]
struct GrowableField {
    name: String,
    file: usize,
    line: usize,
    strukt: String,
}

/// Struct fields whose (possibly wrapped) type is a growable map/set.
fn growable_fields(files: &[FileUnit<'_>]) -> Vec<GrowableField> {
    let mut out = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let text = f.ctx.text;
        let bytes = text.as_bytes();
        for pos in crate::find_all(text, "struct ") {
            let Some((sname, after)) = ident_after(text, pos + 7) else {
                continue;
            };
            // Brace-bodied structs only (tuple structs carry no named
            // long-lived fields).
            let mut k = after;
            while k < bytes.len() && (bytes[k] == b' ' || bytes[k] == b'\n' || bytes[k] == b'<') {
                if bytes[k] == b'<' {
                    // generic struct: skip the parameter list
                    let mut depth = 0i32;
                    while k < bytes.len() {
                        match bytes[k] {
                            b'<' => depth += 1,
                            b'>' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                k += 1;
            }
            if bytes.get(k) != Some(&b'{') {
                continue;
            }
            let end = close_of(bytes, k);
            if f.ctx.in_test(line_of(bytes, pos)) {
                continue;
            }
            // Fields: `name: Type,` at depth 1.
            let mut depth = 0i32;
            let mut field_start = k + 1;
            let mut j = k;
            while j <= end && j < bytes.len() {
                match bytes[j] {
                    b'{' | b'<' | b'(' | b'[' => depth += 1,
                    b'}' | b'>' | b')' | b']' => {
                        depth -= 1;
                        if depth == 0 && bytes[j] == b'}' {
                            // struct end: final unterminated field
                            record_field(text, field_start, j, fi, &sname, &mut out);
                            break;
                        }
                    }
                    b',' if depth == 1 => {
                        record_field(text, field_start, j, fi, &sname, &mut out);
                        field_start = j + 1;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }
    out
}

fn record_field(
    text: &str,
    start: usize,
    end: usize,
    file: usize,
    strukt: &str,
    out: &mut Vec<GrowableField>,
) {
    let decl = &text[start..end.min(text.len())];
    let Some(colon) = decl.find(':') else { return };
    let ty = &decl[colon + 1..];
    if !GROWABLE_TYPES.iter().any(|t| ty.contains(t)) {
        return;
    }
    let name = decl[..colon]
        .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .next()
        .unwrap_or("")
        .to_string();
    if name.is_empty() {
        return;
    }
    let line = line_of(text.as_bytes(), start + colon);
    out.push(GrowableField {
        name,
        file,
        line,
        strukt: strukt.to_string(),
    });
}

/// Does `text[pos..]`, right after a field occurrence, reach one of
/// `methods` after at most two guard hops? Whitespace between chain
/// segments is skipped (rustfmt splits long chains across lines).
fn field_method(text: &str, pos: usize, methods: &[&str]) -> bool {
    fn skip_ws(s: &str) -> &str {
        let k = s.bytes().take_while(|&b| b == b' ' || b == b'\n').count();
        &s[k..]
    }
    let mut tail = skip_ws(&text[pos..]);
    for _ in 0..2 {
        let mut hopped = false;
        for hop in GUARD_HOPS {
            if let Some(t) = tail.strip_prefix(hop) {
                tail = skip_ws(t);
                hopped = true;
                break;
            }
        }
        if !hopped {
            break;
        }
    }
    methods.iter().any(|m| tail.starts_with(m))
}

pub(crate) fn check_l008(ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    let fields = growable_fields(ws.files);
    if fields.is_empty() {
        return;
    }
    // Functions reachable from the cleanup roots (by name), across the
    // whole workspace. Roots are cleanup APIs: their own bodies count.
    let mut reach: BTreeSet<FnId> = BTreeSet::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for (gi, g) in f.fns.iter().enumerate() {
            if !f.ctx.in_test(g.def_line) && cfg.l008_cleanup_roots.iter().any(|r| r == &g.name) {
                reach.insert((fi, gi));
                queue.push_back((fi, gi));
            }
        }
    }
    while let Some(cur) = queue.pop_front() {
        let f = &ws.files[cur.0];
        let info = &f.fns[cur.1];
        for call in call_sites(f.ctx.text, info.body) {
            for t in ws.resolve(cur, &call) {
                if reach.insert(t) {
                    queue.push_back(t);
                }
            }
        }
    }

    // For each growable field: insert sites and prune sites across the
    // workspace, attributed to their enclosing function.
    for field in &fields {
        let mut insert_total = 0usize;
        let mut first_insert: Option<(usize, usize)> = None; // (file, line)
        let mut prune_ok = false;
        for (fi, f) in ws.files.iter().enumerate() {
            let text = f.ctx.text;
            let bytes = text.as_bytes();
            for pos in crate::find_all(text, &field.name) {
                let line = line_of(bytes, pos);
                if f.ctx.in_test(line) {
                    continue;
                }
                let after = pos + field.name.len();
                // Inserts must be field accesses (`x.name.insert(`) so
                // same-named locals don't count. Prunes also count
                // through the guard-rebinding idiom (`let mut m =
                // self.m.lock(); … m.remove(k)`), where the local
                // deliberately shadows the field name.
                let dotted = pos > 0 && bytes[pos - 1] == b'.';
                let is_insert = dotted && field_method(text, after, &INSERT_METHODS);
                let is_prune = field_method(text, after, &PRUNE_METHODS);
                if !is_insert && !is_prune {
                    continue;
                }
                // Enclosing function, if any.
                let owner = f
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.body.0 < pos && pos < g.body.1)
                    .min_by_key(|(_, g)| g.body.1 - g.body.0)
                    .map(|(gi, _)| (fi, gi));
                if is_insert {
                    insert_total += 1;
                    if first_insert.is_none() {
                        first_insert = Some((fi, line));
                    }
                }
                if is_prune {
                    let Some(owner) = owner else {
                        prune_ok = true; // top-level (shouldn't happen)
                        continue;
                    };
                    if reach.contains(&owner) {
                        prune_ok = true;
                    } else {
                        // Self-bounding: the pruning function also
                        // inserts into the same field (eviction at the
                        // insert site — e.g. a capped sketch).
                        let g = &ws.files[owner.0].fns[owner.1];
                        let body_text = &ws.files[owner.0].ctx.text[g.body.0..g.body.1];
                        let bounded = crate::find_all(body_text, &field.name).iter().any(|&p| {
                            let abs = g.body.0 + p;
                            abs != pos
                                && ws.files[owner.0].ctx.text.as_bytes()[abs - 1] == b'.'
                                && field_method(
                                    ws.files[owner.0].ctx.text,
                                    abs + field.name.len(),
                                    &INSERT_METHODS,
                                )
                        });
                        if bounded {
                            prune_ok = true;
                        }
                    }
                }
            }
        }
        if insert_total == 0 || prune_ok {
            continue;
        }
        let f = &ws.files[field.file];
        let (ifile, iline) = first_insert.unwrap_or((field.file, field.line));
        f.ctx.emit(
            out,
            Rule::L008,
            field.line,
            format!(
                "map/set field `{}.{}` grows ({} insert site(s), first at {}:{}) but no \
                 prune path is reachable from the cleanup roots [{}]; long-lived state \
                 leaks under churn — add a prune to maintenance or bound the structure",
                field.strukt,
                field.name,
                insert_total,
                ws.files[ifile].ctx.path,
                iline,
                cfg.l008_cleanup_roots.join(", "),
            ),
        );
    }
}
