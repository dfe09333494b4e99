//! Small shared pieces: a seeded generator, order statistics, a
//! stable digest, and the machine provenance every result records.

use std::path::Path;
use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so inputs depend only on
/// `--seed` and never on a library's default RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for one stream (a client, a phase) of a run.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_add(stream.wrapping_mul(0xA24B_AED4_963E_E407)));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An unordered pair `(i, j)`, `i < j`, of `0..n` (`n >= 2`).
    pub fn pair(&mut self, n: usize) -> (usize, usize) {
        let i = self.below(n);
        let j = (i + 1 + self.below(n - 1)) % n;
        (i.min(j), i.max(j))
    }
}

/// A fixed piece of work that is not the program's: string keys into a
/// `BTreeMap`, a dense float recurrence over a 128×128 table, and a sort
/// of 8 Ki words — the kinds of work the matcher does, on a working set
/// small enough not to disturb the workload's caches. Timed beside a
/// workload, it measures the speed the machine gives the run right then.
pub fn reference_kernel() -> Duration {
    let start = std::time::Instant::now();
    let mut rng = Rng::new(7);
    let mut map = std::collections::BTreeMap::new();
    for i in 0..2000u64 {
        *map.entry(format!("{:x}-{}", rng.next_u64() & 0xffff_ffff, i % 97)).or_insert(0) += i;
    }
    let n = 128;
    let mut m: Vec<f64> =
        (0..n * n).map(|i| ((i * 2_654_435_761) % 1000) as f64 / 1000.0).collect();
    let mut acc = 0.0;
    for i in 1..n {
        for j in 1..n {
            let v = 0.5 * m[(i - 1) * n + j - 1] + 0.25 * (m[(i - 1) * n + j] + m[i * n + j - 1]);
            m[i * n + j] = v;
            acc += v;
        }
    }
    let mut words: Vec<u64> = (0..8192).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    std::hint::black_box((map.len(), acc, words[4096]));
    start.elapsed()
}

/// Reference-kernel samples taken every `every` while a workload runs
/// (untraced runs only). The end-to-end latency and throughput are
/// reported relative to their median, so that a machine that is slower
/// for the whole run does not read as a slower program.
#[derive(Debug)]
pub struct Reference {
    every: Option<Duration>,
    next: std::time::Instant,
    /// Kernel times (µs).
    pub samples: Vec<f64>,
}

impl Reference {
    pub fn new(every: Option<Duration>) -> Reference {
        Reference { every, next: std::time::Instant::now(), samples: Vec::new() }
    }

    /// Run the kernel if one is due.
    pub fn tick(&mut self) {
        if self.every.is_some() && std::time::Instant::now() >= self.next {
            self.sample();
        }
    }

    /// Run the kernel now (when sampling is on).
    pub fn sample(&mut self) {
        if let Some(every) = self.every {
            self.samples.push(us(reference_kernel()));
            self.next = std::time::Instant::now() + every;
        }
    }

    /// The median kernel time in seconds (1 when no sample was taken).
    pub fn seconds(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            1.0
        } else {
            median(samples) / 1e6
        }
    }
}

/// The `q` quantile (`0..=1`) of `values`, linear between order
/// statistics; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First quartile, median and third quartile, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method), so the ledger's spreads match a reader's own check.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |m: usize| {
        // Position m/4 * (n + 1), one-based, clamped into the data.
        let pos = m as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a over everything fed to it: the bit-identity digest of match
/// outputs (paths, node ids and the raw bits of every score).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn mappings(&mut self, mappings: &[cupid_core::MappingElement]) {
        self.u64(mappings.len() as u64);
        for m in mappings {
            self.u64(m.source.index() as u64);
            self.u64(m.target.index() as u64);
            self.str(&m.source_path);
            self.str(&m.target_path);
            self.u64(m.wsim.to_bits());
            self.u64(m.ssim.to_bits());
            self.u64(m.lsim.to_bits());
        }
    }

    pub fn summary(&mut self, s: &cupid_core::MatchSummary) {
        self.u64(s.source.index() as u64);
        self.u64(s.target.index() as u64);
        self.mappings(&s.leaf_mappings);
        self.mappings(&s.nonleaf_mappings);
        self.u64(s.top_pairs.len() as u64);
        for e in &s.top_pairs {
            self.str(&e.source_path);
            self.str(&e.target_path);
            self.u64(e.wsim.to_bits());
        }
        self.u64(s.compared_pairs as u64);
        self.u64(s.total_pairs as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a pair's leaf and non-leaf mappings.
pub fn mapping_digest(
    leaf: &[cupid_core::MappingElement],
    nonleaf: &[cupid_core::MappingElement],
) -> u64 {
    let mut d = Digest::default();
    d.mappings(leaf);
    d.mappings(nonleaf);
    d.finish()
}

/// Digest of a whole list of summaries, in order.
pub fn digest_summaries(summaries: &[cupid_core::MatchSummary]) -> u64 {
    let mut d = Digest::default();
    for s in summaries {
        d.summary(s);
    }
    d.finish()
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub commit: String,
    pub rustc: &'static str,
    pub nproc: usize,
    pub cpu: String,
    pub load_before: String,
    pub load_after: String,
}

impl Provenance {
    pub fn capture() -> Provenance {
        Provenance {
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("LEDGER_RUSTC"),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            load_before: loadavg(),
            load_after: String::new(),
        }
    }
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
