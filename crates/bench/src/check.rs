//! `kosha-bench check`: is a regenerated gate report the checked-in
//! file, byte for byte?

/// `None` if `regenerated` is the checked-in content of `gate`, else a
/// unified diff of the two with the whole file as context.
#[must_use]
pub fn compare(gate: &str, checked_in: &str, regenerated: &str) -> Option<String> {
    if checked_in == regenerated {
        return None;
    }
    let old: Vec<&str> = checked_in.split_inclusive('\n').collect();
    let new: Vec<&str> = regenerated.split_inclusive('\n').collect();
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
            line(' ', old[i]);
            (i, j) = (i + 1, j + 1);
        } else if j == new.len() || (i < old.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
            line('-', old[i]);
            i += 1;
        } else {
            line('+', new[j]);
            j += 1;
        }
    }
    Some(diff)
}
