//! `kosha-lint`: a workspace concurrency & determinism analyzer.
//!
//! Kosha's failover correctness rides on lock discipline across two
//! transports, and the `BENCH_*` CI gates depend on byte-deterministic
//! execution. This crate is a hand-rolled, zero-dependency Rust-source
//! scanner (no `syn`, no crates.io access needed) that enforces the
//! project-specific rules those properties depend on:
//!
//! * **L001** — a lock guard is live across a blocking RPC
//!   (`.call(` / `.call_many(` / `call_typed(`). On `ThreadedNetwork`
//!   this is a deadlock ingredient (the callee may need the same lock via
//!   a nested RPC) and at minimum head-of-line blocking; on `SimNetwork`
//!   it hides the hazard the threaded transport then hits for real.
//! * **L002** — a nondeterminism source (`SystemTime::now`,
//!   `Instant::now`, `thread::sleep`, or iteration over a
//!   `HashMap`/`HashSet`) outside the allowlisted clock/transport
//!   modules. These leak scheduler or hash-seed order into behavior and
//!   break the `BENCH_fanout` / `BENCH_trace` / `BENCH_writeback`
//!   byte-determinism gates.
//! * **L003** — `unwrap()` / `expect(` / `panic!` inside an RPC or NFS
//!   server-handler module. A panic stops a request halfway: whatever the
//!   handler had changed stays half-changed, and its caller gets a bare
//!   `RpcError::Remote` (under `ThreadedNetwork`, which catches it) or
//!   the unwinding itself (under `SimNetwork`) instead of a status.
//!
//! A second, call-graph-aware phase (see [`graph`]) builds a
//! per-function view of the whole workspace and runs two more rules:
//!
//! * **L005** — a blocking RPC transitively reachable from a
//!   server-handler or pump entry point through any chain of helpers.
//! * **L008** — long-lived map/set fields that grow but have no prune
//!   path reachable from the maintenance/cleanup roots.
//!
//! False positives are silenced in place with a justification comment:
//! `// lint: allow(L00x) <why>` on the offending line or the line above.
//! A suppression that silences nothing is itself reported (and fails CI
//! under `--deny-unused-allow`), so stale waivers can't mask future
//! regressions. The scanner works on sanitized source (comments and
//! string literals blanked, line structure preserved), so patterns
//! inside strings, docs, or `#[cfg(test)]` modules are never flagged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The rules the analyzer knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Lock guard live across a blocking RPC.
    L001,
    /// Nondeterminism source outside allowlisted modules.
    L002,
    /// Panic path inside an RPC/NFS server-handler module.
    L003,
    /// Blocking RPC transitively reachable from a handler/pump entry.
    L005,
    /// Growable map/set field with no prune path from cleanup roots.
    L008,
}

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 5] = [Rule::L001, Rule::L002, Rule::L003, Rule::L005, Rule::L008];

    /// Stable rule id (`"L001"`…).
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L005 => "L005",
            Rule::L008 => "L008",
        }
    }

    /// One-line description for `--list-rules`.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::L001 => "lock guard held across a blocking RPC (deadlock / head-of-line risk)",
            Rule::L002 => "nondeterminism source outside allowlisted clock/transport modules",
            Rule::L003 => "unwrap()/expect()/panic! inside an RPC/NFS server-handler module",
            Rule::L005 => "blocking RPC reachable from a server-handler/pump entry point",
            Rule::L008 => "growable map/set field with no prune path from cleanup roots",
        }
    }

    /// Long-form documentation for `--explain L00x`.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::L001 => {
                "L001 — lock guard held across a blocking RPC\n\n\
                 A `.lock()`/`.read()`/`.write()` guard that is still live when a\n\
                 `.call(` / `.call_many(` / `call_typed(` is issued. On ThreadedNetwork\n\
                 the callee may need the same lock via a nested RPC (deadlock); on\n\
                 SimNetwork it hides the hazard. Drop the guard, or clone the data\n\
                 out, before calling. Scope: one function body (L005 covers the\n\
                 transitive case).\n\n\
                 Waive: `// lint: allow(L001) <why>` on the call line."
            }
            Rule::L002 => {
                "L002 — nondeterminism source outside allowlisted modules\n\n\
                 `SystemTime::now` / `Instant::now` / `thread::sleep`, or iteration\n\
                 over a HashMap/HashSet whose order reaches behavior. These leak\n\
                 scheduler or hash-seed order into output and break the BENCH_*\n\
                 byte-identical double-run CI gates. Use the transport clock and\n\
                 BTree collections (or sort before use). Order-insensitive folds\n\
                 (.count(), .sum(), .max()…) are recognized and not flagged.\n\n\
                 Waive: `// lint: allow(L002) <why>`."
            }
            Rule::L003 => {
                "L003 — panic path inside a server-handler module\n\n\
                 `unwrap()` / `expect(` / `panic!` in a module with an\n\
                 `impl RpcHandler` (or a configured dispatch helper). A handler\n\
                 panic stops the request halfway, leaving what it had changed\n\
                 half-changed; its caller gets a bare `Remote` error under\n\
                 ThreadedNetwork (which catches the panic), or the unwinding itself\n\
                 under SimNetwork, instead of a status. Return a protocol error\n\
                 instead.\n\n\
                 Waive: `// lint: allow(L003) <why>`."
            }
            Rule::L005 => {
                "L005 — blocking RPC reachable from a handler/pump entry point\n\n\
                 Entry points are every function in an `impl RpcHandler for …` or\n\
                 `impl PumpHook for …` block, plus configured extra roots\n\
                 (handle_replica, audit_scan). The analyzer builds the workspace\n\
                 call graph — `self.f(` resolves to the caller's own impl type\n\
                 first — and flags any `.call(` / `.call_many(` / `call_typed(`\n\
                 reachable from an entry. The replica-service discipline requires\n\
                 handlers to be leaf functions: a handler that blocks on another\n\
                 node's service while its own actor is owned is one half of a\n\
                 distributed deadlock cycle (the PR 7 actor-ownership inversion).\n\n\
                 Waive at three granularities, most specific first:\n\
                 - the RPC line: that one sink is accepted;\n\
                 - a call line: traversal through that hand-off edge stops\n\
                   (\"callee verified leaf-safe / runs after the handler returns\");\n\
                 - the entry's `fn` line: the whole entry is a designed nesting\n\
                   level (e.g. the control service calling leaf replica services);\n\
                   traversal from other entries stops at a waived entry, so a\n\
                   sibling that only delegates to it needs no second waiver."
            }
            Rule::L008 => {
                "L008 — unbounded state growth\n\n\
                 A struct field of map/set type (HashMap/HashSet/BTreeMap/BTreeSet,\n\
                 possibly wrapped in Mutex/RwLock) with at least one insert site\n\
                 but no remove/retain/clear/drain site in any function reachable\n\
                 from the cleanup roots (maintain, forget*, detach), and no\n\
                 self-bounding eviction co-located with an insert. This is the\n\
                 leak class fixed by hand in PRs 8–9 (replica-slot GC, a\n\
                 latency map's prune): under churn the structure grows for the\n\
                 life of the node.\n\n\
                 Fix by pruning from maintenance, or bound the structure at the\n\
                 insert site. Waive: `// lint: allow(L008) <why>` on the field\n\
                 declaration line."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Scanner configuration: which files get relaxed or stricter treatment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path suffixes where L002 does not apply: the modules that *are*
    /// the clock/transport boundary and legitimately touch wall time,
    /// real sleeps, and scheduler order.
    pub l002_allow_suffixes: Vec<String>,
    /// Path suffixes that count as server-handler modules for L003 even
    /// if the `impl RpcHandler` lives elsewhere (dispatch helpers).
    pub l003_extra_suffixes: Vec<String>,
    /// Trait names whose impl-block functions are L005 entry points.
    pub l005_entry_traits: Vec<String>,
    /// Function names that are L005 entry points regardless of trait
    /// (dispatch helpers reached from handlers in other crates).
    pub l005_extra_roots: Vec<String>,
    /// Function names that count as cleanup/maintenance roots for L008:
    /// a prune site reachable from any of these bounds the structure.
    pub l008_cleanup_roots: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            l002_allow_suffixes: vec![
                // The clock abstraction itself.
                "rpc/src/clock.rs".into(),
                // The real-thread transport: wall time, sleeps, and real
                // scheduler order are its entire point.
                "rpc/src/threadnet.rs".into(),
            ],
            l003_extra_suffixes: vec![
                // Kosha control-plane request execution: called from the
                // ControlService handler in primary.rs.
                "core/src/control.rs".into(),
            ],
            l005_entry_traits: vec!["RpcHandler".into(), "PumpHook".into()],
            l005_extra_roots: vec![
                // Replica-service body: dispatched from ReplicaService's
                // RpcHandler impl and required to stay a leaf.
                "handle_replica".into(),
                // Anti-entropy audit handler body (PR 8's local-state-only
                // rule, now machine-checked).
                "audit_scan".into(),
            ],
            l008_cleanup_roots: vec![
                "maintain".into(),
                "forget".into(),
                "forget_path".into(),
                "forget_subtree".into(),
                "detach".into(),
            ],
        }
    }
}

/// Source with comments and string/char literals blanked (each replaced
/// by spaces so byte offsets and line numbers are preserved), plus the
/// suppressions harvested from comments.
#[derive(Debug)]
pub struct Sanitized {
    /// The blanked source text.
    pub text: String,
    /// Lines (1-based) on which each rule is suppressed. A
    /// `// lint: allow(L00x)` comment suppresses its own line and the
    /// following line, so it works both trailing and standalone.
    pub allow: BTreeMap<usize, BTreeSet<Rule>>,
    /// The comment lines the suppressions came from, keyed by the line
    /// the `lint: allow(...)` comment sits on. Used to report stale
    /// waivers that no longer silence anything.
    pub allow_sites: BTreeMap<usize, BTreeSet<Rule>>,
}

fn parse_allow(
    comment: &str,
    line: usize,
    allow: &mut BTreeMap<usize, BTreeSet<Rule>>,
    sites: &mut BTreeMap<usize, BTreeSet<Rule>>,
) {
    let Some(pos) = comment.find("lint: allow(") else {
        return;
    };
    let rest = &comment[pos + "lint: allow(".len()..];
    let Some(end) = rest.find(')') else { return };
    for tok in rest[..end].split(',') {
        let tok = tok.trim();
        let Some(rule) = Rule::ALL.iter().find(|r| r.id() == tok) else {
            continue;
        };
        sites.entry(line).or_default().insert(*rule);
        for l in [line, line + 1] {
            allow.entry(l).or_default().insert(*rule);
        }
    }
}

/// Blanks comments and string/char literals, preserving layout, and
/// collects `lint: allow(...)` suppressions from the comments.
#[must_use]
pub fn sanitize(src: &str) -> Sanitized {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut allow = BTreeMap::new();
    let mut allow_sites = BTreeMap::new();
    let mut st = St::Code;
    let mut line = 1usize;
    let mut comment = String::new();
    let mut comment_line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            if st == St::LineComment {
                parse_allow(&comment, comment_line, &mut allow, &mut allow_sites);
                comment.clear();
                st = St::Code;
            }
            out.push(b'\n');
            line += 1;
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    st = St::LineComment;
                    comment_line = line;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    st = St::BlockComment(1);
                    comment_line = line;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    st = St::Str;
                    out.push(b'"');
                    i += 1;
                } else if b == b'r' || b == b'b' {
                    // Possible raw string r"...", r#"..."#, br"...", b"...".
                    let mut j = i + 1;
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut hashes = 0usize;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (b == b'r' || bytes.get(i + 1) == Some(&b'r'))
                        && bytes.get(j) == Some(&b'"');
                    let is_bytestr = b == b'b' && hashes == 0 && bytes.get(i + 1) == Some(&b'"');
                    if is_raw {
                        out.extend(std::iter::repeat_n(b' ', j - i));
                        out.push(b'"');
                        i = j + 1;
                        st = St::RawStr(hashes);
                    } else if is_bytestr {
                        out.extend_from_slice(b" \"");
                        i += 2;
                        st = St::Str;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Distinguish a char literal from a lifetime: a
                    // lifetime is 'ident not followed by a closing quote.
                    let is_char = match bytes.get(i + 1) {
                        Some(b'\\') => true,
                        Some(c) if *c != b'\'' => bytes.get(i + 2) == Some(&b'\''),
                        _ => true,
                    };
                    if is_char {
                        st = St::Char;
                        out.push(b'\'');
                    } else {
                        out.push(b'\'');
                    }
                    i += 1;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            St::LineComment => {
                comment.push(b as char);
                out.push(b' ');
                i += 1;
            }
            St::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    if depth == 1 {
                        parse_allow(&comment, comment_line, &mut allow, &mut allow_sites);
                        comment.clear();
                        st = St::Code;
                    } else {
                        st = St::BlockComment(depth - 1);
                    }
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    st = St::BlockComment(depth + 1);
                } else {
                    comment.push(b as char);
                    out.push(b' ');
                    i += 1;
                }
            }
            St::Str => {
                if b == b'\\' {
                    // A `\<newline>` continuation must keep the newline, or
                    // every later line number in the file shifts by one.
                    out.push(b' ');
                    if bytes.get(i + 1) == Some(&b'\n') {
                        out.push(b'\n');
                        line += 1;
                    } else {
                        out.push(b' ');
                    }
                    i += 2;
                    if i > bytes.len() {
                        break;
                    }
                } else if b == b'"' {
                    out.push(b'"');
                    i += 1;
                    st = St::Code;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if b == b'"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if bytes.get(i + 1 + k) != Some(&b'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        out.push(b'"');
                        out.extend(std::iter::repeat_n(b' ', hashes));
                        i += 1 + hashes;
                        st = St::Code;
                        continue;
                    }
                }
                out.push(b' ');
                i += 1;
            }
            St::Char => {
                if b == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    if i > bytes.len() {
                        break;
                    }
                } else if b == b'\'' {
                    out.push(b'\'');
                    i += 1;
                    st = St::Code;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    if st == St::LineComment {
        parse_allow(&comment, comment_line, &mut allow, &mut allow_sites);
    }
    Sanitized {
        text: String::from_utf8_lossy(&out).into_owned(),
        allow,
        allow_sites,
    }
}

/// Per-line flags: is this line inside a `#[cfg(test)]` module?
#[must_use]
pub fn test_line_mask(sanitized: &str) -> Vec<bool> {
    let n_lines = sanitized.lines().count() + 2;
    let mut mask = vec![false; n_lines + 1];
    let bytes = sanitized.as_bytes();
    let mut search = 0usize;
    while let Some(rel) = sanitized[search..].find("#[cfg(test)]") {
        let attr_at = search + rel;
        // Find the next `{` after the attribute and mark its block.
        let Some(open_rel) = sanitized[attr_at..].find('{') else {
            break;
        };
        let open = attr_at + open_rel;
        let mut depth = 0i32;
        let mut end = bytes.len();
        for (k, &b) in bytes.iter().enumerate().skip(open) {
            if b == b'{' {
                depth += 1;
            } else if b == b'}' {
                depth -= 1;
                if depth == 0 {
                    end = k;
                    break;
                }
            }
        }
        let start_line = line_of(bytes, attr_at);
        let end_line = line_of(bytes, end);
        for m in mask
            .iter_mut()
            .take(end_line.min(n_lines) + 1)
            .skip(start_line)
        {
            *m = true;
        }
        search = end.min(bytes.len().saturating_sub(1)).max(attr_at + 1);
        if end >= bytes.len() {
            break;
        }
    }
    mask
}

fn line_of(bytes: &[u8], pos: usize) -> usize {
    1 + bytes[..pos.min(bytes.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// True when `text[pos..]` starts a standalone occurrence of `pat`
/// (not embedded in a longer identifier on either side).
fn standalone(text: &[u8], pos: usize, pat: &str) -> bool {
    if is_ident_byte(pat.as_bytes()[0]) && pos > 0 && is_ident_byte(text[pos - 1]) {
        return false;
    }
    let end = pos + pat.len();
    // Patterns ending in `(` or `!` delimit themselves.
    let last = pat.as_bytes()[pat.len() - 1];
    if is_ident_byte(last) {
        if let Some(&b) = text.get(end) {
            if is_ident_byte(b) {
                return false;
            }
        }
    }
    true
}

fn find_all(text: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut at = 0usize;
    while let Some(rel) = text[at..].find(pat) {
        let pos = at + rel;
        if standalone(text.as_bytes(), pos, pat) {
            out.push(pos);
        }
        at = pos + pat.len().max(1);
    }
    out
}

pub(crate) struct FileCtx<'a> {
    pub(crate) path: &'a str,
    pub(crate) text: &'a str,
    allow: &'a BTreeMap<usize, BTreeSet<Rule>>,
    allow_sites: &'a BTreeMap<usize, BTreeSet<Rule>>,
    test_mask: &'a [bool],
    /// Suppression sites that actually silenced something this run
    /// (comment line, rule) — the complement is reported as stale.
    used_allow: RefCell<BTreeSet<(usize, Rule)>>,
}

impl FileCtx<'_> {
    pub(crate) fn in_test(&self, line: usize) -> bool {
        *self.test_mask.get(line).unwrap_or(&false)
    }

    /// An allow at effect line `line` came from a comment on `line` or
    /// `line - 1`; mark every candidate site used (adjacent same-rule
    /// comments are rare enough that over-marking beats a false stale).
    fn mark_used(&self, rule: Rule, line: usize) {
        let mut used = self.used_allow.borrow_mut();
        for site in [line.saturating_sub(1), line] {
            if self
                .allow_sites
                .get(&site)
                .is_some_and(|rules| rules.contains(&rule))
            {
                used.insert((site, rule));
            }
        }
    }

    /// True when `rule` is waived at `line` by a `lint: allow` comment;
    /// records the waiver as used. Does not consult the test mask —
    /// graph-phase callers filter test lines themselves.
    pub(crate) fn consume_allow(&self, rule: Rule, line: usize) -> bool {
        let hit = self
            .allow
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule));
        if hit {
            self.mark_used(rule, line);
        }
        hit
    }

    fn suppressed(&self, rule: Rule, line: usize) -> bool {
        if self.in_test(line) {
            return true;
        }
        self.consume_allow(rule, line)
    }

    pub(crate) fn emit(&self, out: &mut Vec<Finding>, rule: Rule, line: usize, message: String) {
        if self.suppressed(rule, line) {
            return;
        }
        out.push(Finding {
            rule,
            file: self.path.to_string(),
            line,
            message,
        });
    }

    /// Suppression sites that silenced nothing, in line order. Sites
    /// inside `#[cfg(test)]` regions are exempt — the scanner never
    /// looks there, so their waivers can't fire by construction.
    fn unused_allows(&self) -> Vec<(usize, Rule)> {
        let used = self.used_allow.borrow();
        let mut out = Vec::new();
        for (&line, rules) in self.allow_sites {
            if self.in_test(line) {
                continue;
            }
            for &rule in rules {
                if !used.contains(&(line, rule)) {
                    out.push((line, rule));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// L001: lock guard live across a blocking RPC
// ---------------------------------------------------------------------------

const ACQUIRE_PATS: [&str; 4] = [".lock()", ".read()", ".write()", ".try_lock()"];
const CALL_PATS: [&str; 3] = [".call(", ".call_many(", "call_typed("];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Open,
    Close,
    Semi,
    Let,
    Acquire,
    Call,
    Drop,
    Match,
    For,
}

#[derive(Debug)]
struct Guard {
    name: String,
    depth: i32,
    line: usize,
}

/// Reads the identifier starting at `pos` (skipping leading whitespace).
fn ident_after(text: &str, mut pos: usize) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    while pos < bytes.len() && (bytes[pos] == b' ' || bytes[pos] == b'\n') {
        pos += 1;
    }
    let start = pos;
    while pos < bytes.len() && is_ident_byte(bytes[pos]) {
        pos += 1;
    }
    if pos == start {
        return None;
    }
    Some((text[start..pos].to_string(), pos))
}

/// Detects lock guards that are still live when a blocking RPC is
/// issued. Tracks three shapes:
///
/// 1. `let g = x.lock();` … `net.call(...)` before `g`'s scope ends or
///    `drop(g)` runs,
/// 2. a temporary guard and an RPC inside one statement
///    (`net.call(a, b, state.lock().y)`), and
/// 3. `match x.lock().y { … net.call(...) … }` / `for v in x.lock()…`,
///    where Rust extends the scrutinee temporary across the whole block.
fn check_l001(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let text = ctx.text;
    let bytes = text.as_bytes();

    // Gather positioned events, then walk them in order.
    let mut events: Vec<(usize, Ev)> = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => events.push((i, Ev::Open)),
            b'}' => events.push((i, Ev::Close)),
            b';' => events.push((i, Ev::Semi)),
            _ => {}
        }
    }
    for p in find_all(text, "let ") {
        events.push((p, Ev::Let));
    }
    for pat in ACQUIRE_PATS {
        for p in find_all(text, pat) {
            events.push((p, Ev::Acquire));
        }
    }
    for pat in CALL_PATS {
        for p in find_all(text, pat) {
            events.push((p, Ev::Call));
        }
    }
    for p in find_all(text, "drop(") {
        events.push((p, Ev::Drop));
    }
    for p in find_all(text, "match ") {
        events.push((p, Ev::Match));
    }
    for p in find_all(text, "for ") {
        events.push((p, Ev::For));
    }
    events.sort_by_key(|&(p, _)| p);

    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();
    // Open `let` binding: (pattern text, declaration depth, last acquire pos).
    let mut open_let: Option<(String, i32, Option<usize>)> = None;
    // Statement-local flags (reset at `;`, `{`, `}`).
    let mut stmt_acquire: Option<usize> = None;
    let mut stmt_call: Option<usize> = None;
    // Position where a `match`/`for` header started, if its block should
    // pin a header temporary.
    let mut header_kw: Option<(Ev, usize)> = None;

    for (pos, ev) in events {
        match ev {
            Ev::Open => {
                depth += 1;
                // A `match`/`for` header that acquired a lock extends the
                // guard across the whole block it opens.
                if let (Some((kw, _)), Some(acq)) = (header_kw, stmt_acquire) {
                    if kw == Ev::Match || kw == Ev::For {
                        guards.push(Guard {
                            name: "<scrutinee temporary>".into(),
                            depth,
                            line: line_of(bytes, acq),
                        });
                    }
                }
                header_kw = None;
                stmt_acquire = None;
                stmt_call = None;
            }
            Ev::Close => {
                guards.retain(|g| g.depth < depth);
                depth -= 1;
                stmt_acquire = None;
                stmt_call = None;
                header_kw = None;
                // A `}` can also terminate an open let (`let x = match … };`)
                if let Some((_, d, _)) = open_let {
                    if depth < d {
                        open_let = None;
                    }
                }
            }
            Ev::Semi => {
                if let Some((name, d, Some(acq))) = open_let.clone() {
                    if d == depth {
                        // Guard binding only when the initializer *ends*
                        // with the acquisition (otherwise the guard is a
                        // temporary that dies with this statement).
                        let tail = &text[acq..pos];
                        let tail_end = tail.find(')').map(|k| &tail[k + 1..]).unwrap_or("");
                        if tail_end.chars().all(|c| c.is_whitespace() || c == ')') {
                            guards.push(Guard {
                                name,
                                depth: d,
                                line: line_of(bytes, acq),
                            });
                        }
                    }
                }
                if open_let.as_ref().is_some_and(|&(_, d, _)| d >= depth) {
                    open_let = None;
                }
                stmt_acquire = None;
                stmt_call = None;
                header_kw = None;
            }
            Ev::Let => {
                let name = ident_after(text, pos + 4)
                    .map(|(w, after)| {
                        if w == "mut" {
                            ident_after(text, after).map(|(w2, _)| w2).unwrap_or(w)
                        } else {
                            w
                        }
                    })
                    .unwrap_or_else(|| "<pattern>".into());
                open_let = Some((name, depth, None));
            }
            Ev::Acquire => {
                stmt_acquire = Some(pos);
                if let Some((_, _, acq)) = &mut open_let {
                    *acq = Some(pos);
                }
                if let Some(call) = stmt_call {
                    ctx.emit(
                        out,
                        Rule::L001,
                        line_of(bytes, call),
                        format!(
                            "blocking RPC in the same statement as a lock acquisition \
                             (guard temporary from line {} is held across the call)",
                            line_of(bytes, pos)
                        ),
                    );
                }
            }
            Ev::Call => {
                stmt_call = Some(pos);
                let line = line_of(bytes, pos);
                if let Some(acq) = stmt_acquire {
                    ctx.emit(
                        out,
                        Rule::L001,
                        line,
                        format!(
                            "blocking RPC in the same statement as a lock acquisition \
                             (guard temporary from line {} is held across the call)",
                            line_of(bytes, acq)
                        ),
                    );
                } else if let Some(g) = guards.last() {
                    ctx.emit(
                        out,
                        Rule::L001,
                        line,
                        format!(
                            "blocking RPC while lock guard `{}` (acquired line {}) is live; \
                             drop the guard (or clone the needed data out) before calling",
                            g.name, g.line
                        ),
                    );
                }
            }
            Ev::Drop => {
                if let Some((name, _)) = ident_after(text, pos + 5) {
                    guards.retain(|g| g.name != name);
                }
            }
            Ev::Match | Ev::For => header_kw = Some((ev, pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// L002: nondeterminism sources
// ---------------------------------------------------------------------------

const TIME_PATS: [(&str, &str); 3] = [
    ("SystemTime::now", "wall-clock read"),
    ("Instant::now", "monotonic-clock read"),
    ("thread::sleep", "real-time sleep"),
];

const ITER_METHODS: [&str; 7] = [
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "drain()",
    "into_iter()",
];

/// Method-chain tails whose result does not depend on iteration order,
/// so hash-map iteration feeding them is deterministic after all.
const ORDER_INSENSITIVE: [&str; 10] = [
    ".sum()",
    ".count()",
    ".len()",
    ".max()",
    ".min()",
    ".any(",
    ".all(",
    ".sum::<",
    ".max_by_key(",
    ".min_by_key(",
];

/// Collects identifiers declared (as fields or lets) with a
/// `HashMap`/`HashSet` type in this file, including ones wrapped in
/// `Mutex<…>` / `RwLock<…>` / `Arc<…>`.
fn hash_container_names(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let bytes = text.as_bytes();
    for ty in ["HashMap<", "HashSet<", "HashMap::", "HashSet::"] {
        for pos in find_all(text, ty) {
            // Walk backwards over wrapper types to the `name :` or
            // `name =` that introduced it.
            let mut k = pos;
            while k > 0 {
                let b = bytes[k - 1];
                if b == b':' || b == b'=' {
                    break;
                }
                if b == b'\n' || b == b';' || b == b'(' || b == b'{' {
                    k = 0;
                    break;
                }
                k -= 1;
            }
            if k == 0 {
                continue;
            }
            // Skip `::` paths (e.g. `collections::HashMap`).
            if bytes[k - 1] == b':' && k >= 2 && bytes[k - 2] == b':' {
                continue;
            }
            let mut end = k - 1;
            while end > 0 && (bytes[end - 1] == b' ' || bytes[end - 1] == b':') {
                end -= 1;
            }
            let mut start = end;
            while start > 0 && is_ident_byte(bytes[start - 1]) {
                start -= 1;
            }
            if start < end {
                let name = &text[start..end];
                if name != "let" && name != "mut" && !name.is_empty() {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

fn check_l002(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    if cfg
        .l002_allow_suffixes
        .iter()
        .any(|s| ctx.path.ends_with(s.as_str()))
    {
        return;
    }
    let text = ctx.text;
    let bytes = text.as_bytes();
    for (pat, what) in TIME_PATS {
        for pos in find_all(text, pat) {
            let line = line_of(bytes, pos);
            ctx.emit(
                out,
                Rule::L002,
                line,
                format!(
                    "{what} (`{pat}`) outside an allowlisted clock/transport module; \
                     use the shared transport clock so runs stay deterministic"
                ),
            );
        }
    }

    let names = hash_container_names(text);
    for name in &names {
        for pos in find_all(text, name) {
            let rest = &text[pos + name.len()..];
            // Allow one guard hop: `name.lock().iter()` etc.
            let mut tail = rest;
            for hop in [".lock().", ".read().", ".write()."] {
                if let Some(t) = tail.strip_prefix(hop) {
                    tail = t;
                }
            }
            let tail = tail.strip_prefix('.').unwrap_or(tail);
            let Some(m) = ITER_METHODS.iter().find(|m| tail.starts_with(**m)) else {
                continue;
            };
            let after = &tail[m.len()..];
            let chain = &after[..after.len().min(120)];
            if ORDER_INSENSITIVE.iter().any(|t| chain.starts_with(t)) {
                continue;
            }
            // Collect-then-sort: `let v: Vec<_> = m.keys().collect();
            // v.sort();` restores determinism — skip when the statement
            // is immediately followed by a sort of its result.
            if let Some(semi) = after.find(';') {
                let next = &after[semi..after.len().min(semi + 400)];
                if next.contains(".sort") {
                    continue;
                }
            }
            let line = line_of(bytes, pos);
            ctx.emit(
                out,
                Rule::L002,
                line,
                format!(
                    "iteration over hash container `{name}` leaks nondeterministic order; \
                     sort the result or use a BTree collection"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L003: panic paths in handler modules
// ---------------------------------------------------------------------------

const PANIC_PATS: [(&str, &str); 3] = [
    (".unwrap()", "unwrap()"),
    (".expect(", "expect()"),
    ("panic!(", "panic!"),
];

fn is_handler_module(ctx: &FileCtx<'_>, cfg: &Config) -> bool {
    if cfg
        .l003_extra_suffixes
        .iter()
        .any(|s| ctx.path.ends_with(s.as_str()))
    {
        return true;
    }
    let bytes = ctx.text.as_bytes();
    find_all(ctx.text, "impl RpcHandler for")
        .iter()
        .any(|&p| !ctx.test_mask.get(line_of(bytes, p)).unwrap_or(&false))
}

fn check_l003(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    if !is_handler_module(ctx, cfg) {
        return;
    }
    let bytes = ctx.text.as_bytes();
    for (pat, what) in PANIC_PATS {
        for pos in find_all(ctx.text, pat) {
            let line = line_of(bytes, pos);
            ctx.emit(
                out,
                Rule::L003,
                line,
                format!(
                    "{what} in a server-handler module: a panic here stops the \
                     request halfway and reaches its caller as a bare error; \
                     return a protocol error instead"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// A `lint: allow` comment that silenced nothing this run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnusedAllow {
    /// The rule the stale waiver names.
    pub rule: Rule,
    /// Workspace-relative path of the file with the comment.
    pub file: String,
    /// 1-based line of the comment.
    pub line: usize,
}

impl fmt::Display for UnusedAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: unused suppression: `lint: allow({})` silences nothing — remove it",
            self.file,
            self.line,
            self.rule.id()
        )
    }
}

/// The result of linting a set of files as one workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Rule violations, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Stale `lint: allow` comments, sorted by (file, line, rule).
    pub unused_allows: Vec<UnusedAllow>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Lints `files` (path, source) as one workspace: the per-file rules
/// L001–L003 run on each file; the call-graph rules L005 and L008
/// run across all of them together.
#[must_use]
pub fn lint_files(files: &[(String, String)], cfg: &Config) -> LintReport {
    let prepped: Vec<(&str, Sanitized)> = files
        .iter()
        .map(|(path, src)| (path.as_str(), sanitize(src)))
        .collect();
    let masks: Vec<Vec<bool>> = prepped
        .iter()
        .map(|(_, san)| test_line_mask(&san.text))
        .collect();
    let units: Vec<graph::FileUnit<'_>> = prepped
        .iter()
        .zip(&masks)
        .map(|((path, san), mask)| graph::FileUnit {
            fns: graph::extract_fns(&san.text),
            ctx: FileCtx {
                path,
                text: &san.text,
                allow: &san.allow,
                allow_sites: &san.allow_sites,
                test_mask: mask,
                used_allow: RefCell::new(BTreeSet::new()),
            },
        })
        .collect();

    let mut findings = Vec::new();
    for u in &units {
        check_l001(&u.ctx, &mut findings);
        check_l002(&u.ctx, cfg, &mut findings);
        check_l003(&u.ctx, cfg, &mut findings);
    }
    let ws = graph::Workspace::build(&units);
    graph::check_l005(&ws, cfg, &mut findings);
    graph::check_l008(&ws, cfg, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let mut unused_allows = Vec::new();
    for u in &units {
        for (line, rule) in u.ctx.unused_allows() {
            unused_allows.push(UnusedAllow {
                rule,
                file: u.ctx.path.to_string(),
                line,
            });
        }
    }
    unused_allows.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    LintReport {
        findings,
        unused_allows,
        files_scanned: files.len(),
    }
}

/// Lints one file's source, returning findings sorted by line. The
/// cross-file rules see a single-file workspace, which is exactly what
/// fixture tests want.
#[must_use]
pub fn lint_source(path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    lint_files(&[(path.to_string(), src.to_string())], cfg).findings
}

/// Parses a baseline: known findings (`L00x file:line` per line, `#`
/// comments and blanks skipped) that are reported as baselined rather
/// than failing `--deny`.
#[must_use]
pub fn parse_baseline(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// The baseline key for one finding.
#[must_use]
pub fn baseline_key(f: &Finding) -> String {
    format!("{} {}:{}", f.rule.id(), f.file, f.line)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes findings as a JSON array (stable field order, no deps).
#[must_use]
pub fn findings_to_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut s = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.rule.id(),
            esc(&f.file),
            f.line,
            esc(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"count\": {},\n  \"files_scanned\": {}\n}}\n",
        findings.len(),
        files_scanned
    ));
    s
}

impl LintReport {
    /// Full machine-readable report. Deterministic: everything is
    /// BTree-ordered, so a double run is byte-identical (the CI gate).
    /// `baselined` and `stale_baseline` come from the caller's baseline
    /// filtering; the findings here are the active (non-baselined) ones.
    #[must_use]
    pub fn to_json(&self, baselined: usize, stale_baseline: &[String]) -> String {
        let mut s = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \
                 \"{}\"}}{}\n",
                f.rule.id(),
                esc(&f.file),
                f.line,
                esc(&f.message),
                if i + 1 == self.findings.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("  ],\n  \"unused_allows\": [\n");
        for (i, u) in self.unused_allows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}}}{}\n",
                u.rule.id(),
                esc(&u.file),
                u.line,
                if i + 1 == self.unused_allows.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("  ],\n  \"stale_baseline\": [\n");
        for (i, k) in stale_baseline.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\"{}\n",
                esc(k),
                if i + 1 == stale_baseline.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str(&format!(
            "  ],\n  \"count\": {},\n  \"unused_allow_count\": {},\n  \"baselined\": {},\n  \
             \"files_scanned\": {}\n}}\n",
            self.findings.len(),
            self.unused_allows.len(),
            baselined,
            self.files_scanned
        ));
        s
    }
}

/// Directory names the workspace walk skips: build output, vendored
/// shims, test/bench/example trees (including the lint fixtures under
/// `tests/fixtures/`), the `perf/` wall-clock benchmark (a package of
/// its own outside the workspace, made of exactly the wall-clock reads
/// and `expect`s L002/L003 exist to keep out of the daemon), and dotdirs.
pub const SKIP_DIRS: [&str; 8] = [
    "target", "compat", "tests", "benches", "examples", "perf", ".git", ".github",
];

fn collect_rs_files(
    dir: &std::path::Path,
    out: &mut Vec<std::path::PathBuf>,
) -> std::io::Result<()> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks the workspace at `root` (sorted order, [`SKIP_DIRS`] skipped)
/// and lints every `.rs` file as one workspace. This is the CLI's scan,
/// exposed so the self-scan test runs the identical analysis.
///
/// # Errors
/// Returns the underlying I/O error if the directory walk fails.
pub fn scan_workspace(root: &std::path::Path, cfg: &Config) -> std::io::Result<LintReport> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    let mut files = Vec::new();
    for path in &paths {
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, src));
    }
    Ok(lint_files(&files, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("crates/x/src/lib.rs", src, &Config::default())
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- sanitizer ------------------------------------------------------

    #[test]
    fn sanitize_blanks_strings_and_comments() {
        let s = sanitize("let x = \"a.lock()\"; // .call( here\n/* .unwrap() */ y");
        assert!(!s.text.contains(".lock()"));
        assert!(!s.text.contains(".call("));
        assert!(!s.text.contains(".unwrap()"));
        assert!(s.text.contains("let x = "));
        assert_eq!(s.text.lines().count(), 2);
    }

    #[test]
    fn sanitize_keeps_newline_in_string_continuation() {
        // A `\<newline>` continuation inside a string literal must not
        // swallow the newline: later findings would shift by one line.
        let s = sanitize("let m = \"a \\\n   b\";\nnext();");
        assert_eq!(s.text.lines().count(), 3);
        assert!(s.text.contains("next();"));
    }

    #[test]
    fn sanitize_handles_raw_strings_chars_and_lifetimes() {
        let s = sanitize("let p = r#\"x.call(\"#; let c = '\\''; fn f<'a>(x: &'a str) {}");
        assert!(!s.text.contains(".call("));
        assert!(s.text.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn suppression_parses_multiple_rules() {
        let s = sanitize("x(); // lint: allow(L001, L003) justified\ny();");
        assert!(s.allow[&1].contains(&Rule::L001));
        assert!(s.allow[&1].contains(&Rule::L003));
        assert!(s.allow[&2].contains(&Rule::L001));
    }

    // ---- L001 -----------------------------------------------------------

    #[test]
    fn l001_flags_named_guard_across_call() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    \
                   self.net.call(a, b, req);\n}\n";
        let f = lint(src);
        assert_eq!(rules(&f), vec![Rule::L001]);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains('g'));
    }

    #[test]
    fn l001_suppressed_with_justification() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    \
                   // lint: allow(L001) loopback-only, callee takes no locks\n    \
                   self.net.call(a, b, req);\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l001_ok_when_guard_dropped_first() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    let v = g.x;\n    \
                   drop(g);\n    self.net.call(a, b, v);\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l001_ok_when_guard_scope_closed() {
        let src = "fn f(&self) {\n    let v = {\n        let g = self.state.lock();\n        \
                   g.x\n    };\n    self.net.call(a, b, v);\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l001_flags_same_statement_temporary() {
        let src = "fn f(&self) {\n    self.net.call(a, b, self.state.lock().clone());\n}\n";
        let f = lint(src);
        assert_eq!(rules(&f), vec![Rule::L001]);
    }

    #[test]
    fn l001_flags_match_scrutinee_guard() {
        let src = "fn f(&self) {\n    match self.state.lock().mode {\n        \
                   M::A => { self.net.call(a, b, req); }\n        _ => {}\n    }\n}\n";
        let f = lint(src);
        assert_eq!(rules(&f), vec![Rule::L001]);
    }

    #[test]
    fn l001_ignores_collect_through_guard() {
        // The guard is a temporary that dies at the end of the `let`
        // statement; the later call is safe.
        let src = "fn f(&self) {\n    let targets: Vec<N> = \
                   self.q.lock().keys().copied().collect();\n    \
                   self.net.call_many(a, targets);\n}\n";
        let f = lint(src);
        assert!(!rules(&f).contains(&Rule::L001), "{f:?}");
    }

    // ---- L002 -----------------------------------------------------------

    #[test]
    fn l002_flags_wall_clock_and_sleep() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n    \
                   std::thread::sleep(d);\n}\n";
        let f = lint(src);
        assert_eq!(rules(&f), vec![Rule::L002, Rule::L002]);
    }

    #[test]
    fn l002_allows_transport_modules() {
        let src = "fn f() { let t = Instant::now(); }\n";
        let f = lint_source("crates/rpc/src/threadnet.rs", src, &Config::default());
        assert!(f.is_empty());
    }

    #[test]
    fn l002_suppression_works() {
        let src = "fn f() {\n    // lint: allow(L002) wall time feeds logs only\n    \
                   let t = Instant::now();\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l002_flags_hashmap_iteration_order_leak() {
        let src = "struct S { peers: HashMap<u64, P> }\nfn f(s: &S) {\n    \
                   let v: Vec<_> = s.peers.keys().collect();\n}\n";
        let f = lint(src);
        assert_eq!(rules(&f), vec![Rule::L002]);
        assert!(f[0].message.contains("peers"));
    }

    #[test]
    fn l002_ignores_order_insensitive_fold() {
        let src = "struct S { peers: HashMap<u64, P> }\nfn f(s: &S) -> usize {\n    \
                   s.peers.values().count()\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l002_ignores_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    // ---- L003 -----------------------------------------------------------

    #[test]
    fn l003_flags_unwrap_in_handler_module() {
        let src = "impl RpcHandler for S {\n    fn handle(&self) {\n        \
                   let x = y.unwrap();\n    }\n}\n";
        let f = lint(src);
        assert_eq!(rules(&f), vec![Rule::L003]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn l003_suppressed_with_justification() {
        let src = "impl RpcHandler for S {\n    fn handle(&self) {\n        \
                   // lint: allow(L003) length checked two lines up\n        \
                   let x = y.unwrap();\n    }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l003_ignores_non_handler_modules() {
        let src = "fn helper() { let x = y.unwrap(); }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn l003_ignores_tests_in_handler_modules() {
        let src = "impl RpcHandler for S {\n    fn handle(&self) {}\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let f = vec![Finding {
            rule: Rule::L001,
            file: "a.rs".into(),
            line: 3,
            message: "say \"hi\"".into(),
        }];
        let j = findings_to_json(&f, 9);
        assert!(j.contains("\"rule\": \"L001\""));
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\"files_scanned\": 9"));
    }
}
