//! A cache keyed by directory path that forgets a subtree without a scan.

use crate::handles::ancestors;
use std::collections::HashMap;

/// Values by directory path, plus, for every path with cached entries
/// anywhere below it, how many (the scheme [`crate::handles::HandleTable`]
/// keeps for handles). A lookup is one hash lookup. Forgetting a path
/// with nothing cached below it, as an RMDIR does, is one remove and one
/// count update per ancestor; only a path with cached descendants costs
/// a scan of the keys.
///
/// Invariant: `below` holds, for every path with a key strictly below it
/// in `map`, the number of such keys, and no other key.
#[derive(Debug)]
pub(crate) struct DirCache<V> {
    map: HashMap<String, V>,
    below: HashMap<String, usize>,
}

impl<V> Default for DirCache<V> {
    fn default() -> Self {
        DirCache {
            map: HashMap::new(),
            below: HashMap::new(),
        }
    }
}

impl<V: Copy> DirCache<V> {
    /// The value cached for `path`.
    pub(crate) fn get(&self, path: &str) -> Option<V> {
        self.map.get(path).copied()
    }

    /// True if `path` is cached.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, path: &str) -> bool {
        self.map.contains_key(path)
    }

    /// Caches `v` for `path`.
    pub(crate) fn insert(&mut self, path: String, v: V) {
        if !self.map.contains_key(&path) {
            for dir in ancestors(&path) {
                match self.below.get_mut(dir) {
                    Some(n) => *n += 1,
                    None => {
                        self.below.insert(dir.to_string(), 1);
                    }
                }
            }
        }
        self.map.insert(path, v);
    }

    /// Forgets `path` alone; true if it was cached.
    pub(crate) fn remove(&mut self, path: &str) -> bool {
        if self.map.remove(path).is_none() {
            return false;
        }
        for dir in ancestors(path) {
            if let Some(n) = self.below.get_mut(dir) {
                *n -= 1;
                if *n == 0 {
                    self.below.remove(dir);
                }
            }
        }
        true
    }

    /// Forgets `path` and everything cached below it.
    pub(crate) fn remove_subtree(&mut self, path: &str) {
        self.remove(path);
        if self.below.contains_key(path) {
            self.retain(|p, _| !is_below(p, path));
        }
    }

    /// Keeps only the entries `keep` accepts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&str, &V) -> bool) {
        let gone: Vec<String> = self
            .map
            .iter()
            .filter(|(p, v)| !keep(p, v))
            .map(|(p, _)| p.clone())
            .collect();
        for p in gone {
            self.remove(&p);
        }
    }

    /// Forgets everything.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.below.clear();
    }

    /// Number of cached paths.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Number of paths with a cached entry below them.
    #[cfg(test)]
    pub(crate) fn counted_dirs(&self) -> usize {
        self.below.len()
    }
}

/// True if `p` lies strictly below directory `dir`.
fn is_below(p: &str, dir: &str) -> bool {
    match p.strip_prefix(dir) {
        Some(rest) => rest.starts_with('/') || (dir == "/" && !rest.is_empty()),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_subtree_goes_and_its_neighbours_stay() {
        let mut c = DirCache::default();
        for p in ["/", "/a", "/a/x", "/a/x/y", "/ab", "/ab/y", "/a-b", "/b"] {
            c.insert(p.to_string(), 7u8);
        }
        c.remove_subtree("/a");
        for gone in ["/a", "/a/x", "/a/x/y"] {
            assert!(!c.contains_key(gone), "{gone}");
        }
        for kept in ["/", "/ab", "/ab/y", "/a-b", "/b"] {
            assert!(c.contains_key(kept), "{kept}");
        }
        // Counts: `/` has four below it, `/ab` one; nothing else.
        assert_eq!(c.counted_dirs(), 2);
        c.remove_subtree("/");
        assert_eq!((c.len(), c.counted_dirs()), (0, 0));
    }

    #[test]
    fn counts_follow_inserts_removes_and_retains() {
        let mut c = DirCache::default();
        c.insert("/a/b/c".to_string(), 1u8);
        c.insert("/a/b/c".to_string(), 2u8);
        assert_eq!(c.get("/a/b/c"), Some(2));
        assert_eq!(c.counted_dirs(), 3, "/, /a and /a/b");
        c.insert("/a".to_string(), 3u8);
        c.retain(|_, v| *v != 2);
        assert_eq!((c.len(), c.counted_dirs()), (1, 1));
        assert!(c.remove("/a"));
        assert!(!c.remove("/a"));
        assert_eq!(c.counted_dirs(), 0);
    }
}
