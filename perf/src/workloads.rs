//! The four closed-loop workloads. Each client issues its next op only
//! after checking the result of the previous one.

use crate::cluster::{Cluster, Transport, NODES};
use crate::sys;
use crate::trace::{self, Layer};
use kosha::KoshaMount;
use kosha_nfs::{Fh, NfsClient};
use kosha_rpc::{NodeAddr, ServiceId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub const BLOCK: usize = 128 * 1024;

/// File contents derived from position: file `f` at generation `g` holds
/// the seeded random block rotated by an amount that depends on `(f, g)`,
/// so filling a buffer and checking one are two `memcpy`/`memcmp` calls.
pub struct Pattern {
    base: Vec<u8>,
}

/// `BLOCK` seeded random bytes.
pub fn random_block(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut block = Vec::with_capacity(BLOCK);
    while block.len() < BLOCK {
        block.extend_from_slice(&rng.next().to_le_bytes());
    }
    block
}

impl Pattern {
    fn new(seed: u64) -> Pattern {
        Pattern {
            base: random_block(seed ^ 0x5EED_B10C),
        }
    }

    fn rotation(file: usize, generation: u64) -> usize {
        (file * 4099 + generation as usize * 257) % BLOCK
    }

    /// Writes the first `buf.len()` bytes of the file's contents.
    fn fill(&self, buf: &mut [u8], file: usize, generation: u64) {
        let rot = Self::rotation(file, generation);
        let head = buf.len().min(BLOCK - rot);
        buf[..head].copy_from_slice(&self.base[rot..rot + head]);
        let tail = buf.len() - head;
        buf[head..].copy_from_slice(&self.base[..tail]);
    }

    /// True when `data` is the first `data.len()` bytes of the file.
    fn matches(&self, data: &[u8], file: usize, generation: u64) -> bool {
        let rot = Self::rotation(file, generation);
        let head = data.len().min(BLOCK - rot);
        data[..head] == self.base[rot..rot + head] && data[head..] == self.base[..data.len() - head]
    }

    fn contents(&self, len: usize, file: usize, generation: u64) -> Vec<u8> {
        let mut buf = vec![0; len];
        self.fill(&mut buf, file, generation);
        buf
    }
}

/// Length of one window of the measured phase (see `README.md`, noise).
pub const WINDOW: Duration = Duration::from_millis(50);

/// Times the one call into the system that each op makes, and files the
/// op under the window of the pass in which the op before it ended. On a traced pass
/// that call is also the root span.
pub struct Timer {
    epoch: Instant,
    /// When the last op ended (the pass's start before the first).
    pub now: Instant,
    pub latencies_ns: Vec<u32>,
    /// `window_ends[w]` is how many ops had started when window `w` ended.
    pub window_ends: Vec<usize>,
    /// Process CPU time at the end of each window, if this timer samples it.
    pub window_cpu_ns: Option<Vec<u64>>,
}

impl Timer {
    pub fn new(epoch: Instant, sample_cpu: bool) -> Timer {
        Timer {
            epoch,
            now: epoch,
            latencies_ns: Vec::with_capacity(1 << 16),
            window_ends: Vec::new(),
            window_cpu_ns: sample_cpu.then(Vec::new),
        }
    }

    /// Closes every window that ended before `at`.
    fn close_windows(&mut self, at: Instant) {
        let open = (at.duration_since(self.epoch).as_nanos() / WINDOW.as_nanos()) as usize;
        if open <= self.window_ends.len() {
            return;
        }
        self.window_ends.resize(open, self.latencies_ns.len());
        if let Some(samples) = &mut self.window_cpu_ns {
            samples.resize(open, sys::process_cpu_ns());
        }
    }

    fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        // The end of the previous op stands for the start of this one: the
        // time between them is the generator's and the checker's. Done
        // before the span opens, so that the bookkeeping is not the op's.
        self.close_windows(self.now);
        let span = trace::enter(Layer::Mount);
        let start = Instant::now();
        let result = op();
        let elapsed = start.elapsed();
        trace::exit(span, 0);
        self.latencies_ns
            .push(u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX));
        self.now = start + elapsed;
        result
    }
}

pub trait Client: Send {
    /// Generates, issues and checks one op; false if it failed or its
    /// result was wrong.
    fn step(&mut self, timer: &mut Timer) -> bool;
    /// File bytes read or written by the ops so far.
    fn payload_bytes(&self) -> u64;
    /// Untimed end-of-run comparison of the file system against the
    /// client's model: `(checks made, checks failed)`.
    fn census(&mut self) -> (u64, u64);
}

/// A cluster with its files in place and one client per load thread.
pub struct Bench {
    /// Declared, and so dropped, before the cluster: the cluster's drop
    /// waits for every other reference to its transport to go.
    pub clients: Vec<Box<dyn Client>>,
    pub cluster: Cluster,
    /// Whether the workload mutates replicated state, so that the final
    /// audit has something to catch.
    audited: bool,
}

impl Bench {
    pub fn setup(workload: &str, seed: u64, traced: bool) -> Bench {
        let pattern = Arc::new(Pattern::new(seed));
        let transport = match workload {
            "mix_thr" => Transport::threaded(),
            _ => Transport::sim(),
        };
        let cluster = Cluster::build(transport, NODES, traced);
        let clients: Vec<Box<dyn Client>> = match workload {
            "meta_sim" => vec![Box::new(MetaClient::setup(&cluster, seed, &pattern))],
            "read_sim" => vec![Box::new(ReadClient::setup(&cluster, seed, pattern))],
            "write_sim" => vec![Box::new(WriteClient::setup(&cluster, pattern))],
            "mix_thr" => MixClient::setup(&cluster, seed, &pattern),
            other => panic!("unknown workload {other:?}"),
        };
        Bench {
            clients,
            cluster,
            audited: workload != "read_sim",
        }
    }

    /// End-of-run checks: every client's census, then the replica audit.
    pub fn final_checks(&mut self) -> (u64, u64) {
        let (mut made, mut failed) = (0, 0);
        for c in &mut self.clients {
            let (m, f) = c.census();
            made += m;
            failed += f;
        }
        if self.audited {
            made += 1;
            failed += u64::from(!self.cluster.audit_clean());
        }
        (made, failed)
    }
}

fn direct_client(cluster: &Cluster, node: usize) -> (NfsClient, NodeAddr) {
    let addr = cluster.nodes[node].addr();
    let nfs = NfsClient::with_service(cluster.transport.net(), addr, ServiceId::KoshaFs);
    (nfs, addr)
}

// ---------------------------------------------------------------- meta_sim

const META_TOP: usize = 16;
const META_SUB: usize = 4;
const META_FILES: usize = 8;
const META_FILE_LEN: usize = 4096;
const SMALL: [u8; 64] = [0x5A; 64];

struct MetaDir {
    path: String,
    /// `(name, size)` of every file the directory should hold.
    files: Vec<(String, u64)>,
}

/// No payload: fixed per-RPC cost is all there is.
struct MetaClient {
    mount: KoshaMount,
    rng: Rng,
    dirs: Vec<MetaDir>,
    created: u64,
    payload: u64,
}

impl MetaClient {
    fn setup(cluster: &Cluster, seed: u64, pattern: &Pattern) -> MetaClient {
        let mount = cluster.mount(0);
        let mut dirs = Vec::new();
        for top in 0..META_TOP {
            for sub in 0..META_SUB {
                let path = format!("/d{top:02}/s{sub}");
                mount.mkdir_p(&path).expect("populate: mkdir");
                let mut files = Vec::new();
                for f in 0..META_FILES {
                    let name = format!("f{f}");
                    let data = pattern.contents(META_FILE_LEN, dirs.len() * META_FILES + f, 0);
                    mount
                        .write_file(&format!("{path}/{name}"), &data)
                        .expect("populate: write");
                    files.push((name, META_FILE_LEN as u64));
                }
                dirs.push(MetaDir { path, files });
            }
        }
        MetaClient {
            mount,
            rng: Rng::new(seed),
            dirs,
            created: 0,
            payload: 0,
        }
    }

    /// Lists `dir` (through `timer` if the listing is an op) and compares
    /// the names with the model's.
    fn listing_matches(&self, dir: &MetaDir, timer: Option<&mut Timer>) -> bool {
        let list = || self.mount.readdir(&dir.path);
        let Ok(entries) = timer.map_or_else(list, |t| t.time(list)) else {
            return false;
        };
        entries.len() == dir.files.len()
            && entries
                .iter()
                .all(|e| dir.files.iter().any(|(n, _)| *n == e.name))
    }
}

impl Client for MetaClient {
    fn step(&mut self, timer: &mut Timer) -> bool {
        let roll = self.rng.below(1000);
        let d = self.rng.below(self.dirs.len());
        let population = self.dirs[d].files.len();
        // Creates and removes steer the directory back towards its
        // starting size, so the cost of an op does not drift over a run.
        let create = match roll {
            750..=864 => population < 2 * META_FILES,
            865..=979 => population <= META_FILES / 2,
            _ => false,
        };
        match roll {
            0..=599 => {
                let dir = &self.dirs[d];
                let (name, size) = &dir.files[self.rng.below(population)];
                let path = format!("{}/{name}", dir.path);
                matches!(timer.time(|| self.mount.stat(&path)), Ok((_, attr)) if attr.size == *size)
            }
            600..=749 => self.listing_matches(&self.dirs[d], Some(timer)),
            750..=979 if create => {
                self.created += 1;
                let name = format!("n{}", self.created);
                let path = format!("{}/{name}", self.dirs[d].path);
                let ok = timer.time(|| self.mount.write_file(&path, &SMALL)).is_ok();
                self.dirs[d].files.push((name, SMALL.len() as u64));
                self.payload += SMALL.len() as u64;
                ok
            }
            750..=979 => {
                let victim = self.rng.below(population);
                let (name, _) = self.dirs[d].files.swap_remove(victim);
                let path = format!("{}/{name}", self.dirs[d].path);
                timer.time(|| self.mount.remove(&path)).is_ok()
            }
            _ => {
                // A fresh level-1 directory is placed by hashing its
                // name and routing the key through the overlay.
                self.created += 1;
                let path = format!("/t{}", self.created);
                let mount = &self.mount;
                timer
                    .time(|| mount.mkdir(&path).and_then(|_| mount.rmdir(&path)))
                    .is_ok()
            }
        }
    }

    fn payload_bytes(&self) -> u64 {
        self.payload
    }

    fn census(&mut self) -> (u64, u64) {
        let failed = self
            .dirs
            .iter()
            .filter(|dir| !self.listing_matches(dir, None))
            .count();
        (self.dirs.len() as u64, failed as u64)
    }
}

// ---------------------------------------------------------------- read_sim

const READ_DIRS: usize = 16;
const READ_FILES: usize = 256;

/// The payload path in the reply direction; replication does nothing.
struct ReadClient {
    nfs: NfsClient,
    koshad: NodeAddr,
    files: Vec<Fh>,
    rng: Rng,
    pattern: Arc<Pattern>,
    payload: u64,
}

impl ReadClient {
    fn setup(cluster: &Cluster, seed: u64, pattern: Arc<Pattern>) -> ReadClient {
        let mount = cluster.mount(0);
        let mut files = Vec::with_capacity(READ_FILES);
        for d in 0..READ_DIRS {
            mount
                .mkdir_p(&format!("/r/d{d:02}"))
                .expect("populate: mkdir");
        }
        for f in 0..READ_FILES {
            let path = format!("/r/d{:02}/f{f}", f % READ_DIRS);
            let fh = mount
                .write_file(&path, &pattern.contents(BLOCK, f, 0))
                .expect("populate: write");
            files.push(fh);
        }
        let (nfs, koshad) = direct_client(cluster, 0);
        ReadClient {
            nfs,
            koshad,
            files,
            rng: Rng::new(seed),
            pattern,
            payload: 0,
        }
    }
}

impl Client for ReadClient {
    fn step(&mut self, timer: &mut Timer) -> bool {
        let f = self.rng.below(self.files.len());
        let fh = self.files[f];
        let result = timer.time(|| self.nfs.read(self.koshad, fh, 0, BLOCK as u32));
        self.payload += BLOCK as u64;
        matches!(result, Ok((data, _)) if data.len() == BLOCK && self.pattern.matches(&data, f, 0))
    }

    fn payload_bytes(&self) -> u64 {
        self.payload
    }

    fn census(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

// --------------------------------------------------------------- write_sim

const WRITE_DIRS: usize = 4;
const WRITE_FILES: usize = 64;

/// The payload path in the request direction, plus the primary's apply
/// and the mirror to K = 2 replicas.
struct WriteClient {
    nfs: NfsClient,
    koshad: NodeAddr,
    files: Vec<Fh>,
    /// Generation last written to each file.
    generations: Vec<u64>,
    issued: usize,
    buf: Vec<u8>,
    pattern: Arc<Pattern>,
    payload: u64,
}

impl WriteClient {
    fn setup(cluster: &Cluster, pattern: Arc<Pattern>) -> WriteClient {
        let mount = cluster.mount(0);
        let mut files = Vec::with_capacity(WRITE_FILES);
        for d in 0..WRITE_DIRS {
            mount.mkdir_p(&format!("/w/d{d}")).expect("populate: mkdir");
        }
        for f in 0..WRITE_FILES {
            let path = format!("/w/d{}/f{f}", f % WRITE_DIRS);
            let fh = mount
                .write_file(&path, &pattern.contents(BLOCK, f, 0))
                .expect("populate: write");
            files.push(fh);
        }
        let (nfs, koshad) = direct_client(cluster, 0);
        WriteClient {
            nfs,
            koshad,
            files,
            generations: vec![0; WRITE_FILES],
            issued: 0,
            buf: vec![0; BLOCK],
            pattern,
            payload: 0,
        }
    }

    fn reads_back(&self, f: usize) -> bool {
        matches!(
            self.nfs.read(self.koshad, self.files[f], 0, BLOCK as u32),
            Ok((data, _)) if data.len() == BLOCK && self.pattern.matches(&data, f, self.generations[f])
        )
    }
}

impl Client for WriteClient {
    fn step(&mut self, timer: &mut Timer) -> bool {
        let f = self.issued % WRITE_FILES;
        self.issued += 1;
        self.generations[f] += 1;
        self.pattern.fill(&mut self.buf, f, self.generations[f]);
        let fh = self.files[f];
        let result = timer.time(|| self.nfs.write(self.koshad, fh, 0, &self.buf));
        self.payload += BLOCK as u64;
        let mut ok = matches!(result, Ok(n) if n as usize == BLOCK);
        if self.issued.is_multiple_of(WRITE_FILES) {
            ok &= trace::untraced(|| self.reads_back(f));
        }
        ok
    }

    fn payload_bytes(&self) -> u64 {
        self.payload
    }

    fn census(&mut self) -> (u64, u64) {
        let failed = (0..WRITE_FILES).filter(|&f| !self.reads_back(f)).count();
        (WRITE_FILES as u64, failed as u64)
    }
}

// ----------------------------------------------------------------- mix_thr

const MIX_CLIENTS: usize = 2;
const MIX_DIRS: usize = 8;
const MIX_FILES: usize = 128;
const MIX_FILE_LEN: usize = 32 * 1024;

/// The Modified Andrew Benchmark's phases as one steady stream, without
/// its modelled compile sleep. The reactor does most of the work.
struct MixClient {
    mount: KoshaMount,
    rng: Rng,
    /// Paths of the shared read-only files, indexed by file number.
    shared: Arc<Vec<String>>,
    /// This client's own directory for create + remove.
    scratch: String,
    created: u64,
    pattern: Arc<Pattern>,
    payload: u64,
}

impl MixClient {
    fn setup(cluster: &Cluster, seed: u64, pattern: &Arc<Pattern>) -> Vec<Box<dyn Client>> {
        let mount = cluster.mount(0);
        for d in 0..MIX_DIRS {
            mount.mkdir_p(&format!("/m/d{d}")).expect("populate: mkdir");
        }
        let mut shared = Vec::with_capacity(MIX_FILES);
        for f in 0..MIX_FILES {
            let path = format!("/m/d{}/f{f}", f % MIX_DIRS);
            mount
                .write_file(&path, &pattern.contents(MIX_FILE_LEN, f, 0))
                .expect("populate: write");
            shared.push(path);
        }
        let shared = Arc::new(shared);
        (0..MIX_CLIENTS)
            .map(|c| {
                let scratch = format!("/m/w{c}");
                mount.mkdir_p(&scratch).expect("populate: mkdir");
                Box::new(MixClient {
                    // Each client mounts through a different node.
                    mount: cluster.mount(c),
                    rng: Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
                    shared: Arc::clone(&shared),
                    scratch,
                    created: 0,
                    pattern: Arc::clone(pattern),
                    payload: 0,
                }) as Box<dyn Client>
            })
            .collect()
    }
}

impl Client for MixClient {
    fn step(&mut self, timer: &mut Timer) -> bool {
        let roll = self.rng.below(100);
        let mount = &self.mount;
        match roll {
            0..=59 => {
                let path = &self.shared[self.rng.below(MIX_FILES)];
                matches!(timer.time(|| mount.stat(path)), Ok((_, attr)) if attr.size == MIX_FILE_LEN as u64)
            }
            60..=84 => {
                let f = self.rng.below(MIX_FILES);
                let result = timer.time(|| mount.read_file(&self.shared[f]));
                self.payload += MIX_FILE_LEN as u64;
                matches!(result, Ok(data) if data.len() == MIX_FILE_LEN && self.pattern.matches(&data, f, 0))
            }
            _ => {
                self.created += 1;
                let path = format!("{}/n{}", self.scratch, self.created);
                self.payload += SMALL.len() as u64;
                timer
                    .time(|| {
                        mount
                            .write_file(&path, &SMALL)
                            .and_then(|_| mount.remove(&path))
                    })
                    .is_ok()
            }
        }
    }

    fn payload_bytes(&self) -> u64 {
        self.payload
    }

    fn census(&mut self) -> (u64, u64) {
        let empty = matches!(self.mount.readdir(&self.scratch), Ok(entries) if entries.is_empty());
        (1, u64::from(!empty))
    }
}
