//! `kosha-bench check`: is a regenerated gate report the checked-in
//! file, byte for byte?

use std::borrow::Cow;

/// Keys of `BENCH_sched.json`'s `threaded` object whose values follow
/// from the host's `available_parallelism()`: the core count itself,
/// the pool sized from it (`clamp(4, 64)`), the threads that pool
/// spawned, and the bound that compares the two. No other object in the
/// file has a key of these names, and everything else in it is virtual
/// time, so everything else is held to the checked-in copy.
const SCHED_HOST_KEYS: [&str; 4] = [
    "cpu_cores",
    "worker_threads",
    "threads_spawned_total",
    "workers_le_2x_cores",
];

/// `text` by lines, with the value of each host-derived `"key": value`
/// pair blanked wherever on its line the pair stands.
fn masked_lines<'a>(gate: &str, text: &'a str) -> Vec<Cow<'a, str>> {
    let host_keys: &[&str] = match gate {
        "BENCH_sched.json" => &SCHED_HOST_KEYS,
        _ => &[],
    };
    text.split_inclusive('\n')
        .map(|line| {
            let mut line = Cow::Borrowed(line);
            for key in host_keys {
                let pair = format!("\"{key}\": ");
                if let Some(at) = line.find(&pair) {
                    let value = at + pair.len();
                    let end = line[value..]
                        .find([',', '}', '\n'])
                        .map_or(line.len(), |n| value + n);
                    line = format!("{}<host>{}", &line[..value], &line[end..]).into();
                }
            }
            line
        })
        .collect()
}

/// `None` if `regenerated` is the checked-in content of `gate` (apart
/// from the host-derived fields of `BENCH_sched.json`), else a unified
/// diff of the two with the whole file as context.
#[must_use]
pub fn compare(gate: &str, checked_in: &str, regenerated: &str) -> Option<String> {
    let (old, new) = (
        masked_lines(gate, checked_in),
        masked_lines(gate, regenerated),
    );
    if old == new {
        return None;
    }
    // Longest common subsequence by lines; gate files are tens of lines.
    let mut lcs = vec![vec![0usize; new.len() + 1]; old.len() + 1];
    for i in (0..old.len()).rev() {
        for j in (0..new.len()).rev() {
            lcs[i][j] = if old[i] == new[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut diff = format!(
        "--- {gate} (checked in)\n+++ {gate} (regenerated)\n@@ -1,{} +1,{} @@\n",
        old.len(),
        new.len()
    );
    let mut line = |sign: char, text: &str| {
        diff.push(sign);
        diff.push_str(text);
        if !text.ends_with('\n') {
            diff.push_str("\n\\ No newline at end of file\n");
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        if i < old.len() && j < new.len() && old[i] == new[j] {
            line(' ', &old[i]);
            (i, j) = (i + 1, j + 1);
        } else if j == new.len() || (i < old.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
            line('-', &old[i]);
            i += 1;
        } else {
            line('+', &new[j]);
            j += 1;
        }
    }
    Some(diff)
}
