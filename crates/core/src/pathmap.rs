//! A map keyed by path that forgets a subtree without a scan.

use std::collections::HashMap;

/// Values by path, plus, for every path with entries anywhere below it,
/// how many. A lookup is one hash lookup. Forgetting a path with nothing
/// below it, as an RMDIR does, is one remove and one count update per
/// ancestor; only a path with descendants costs a scan of the keys. It
/// backs koshad's handle table, all it knows about where a path lives,
/// and the mount's directory cache.
///
/// Invariant: `below` holds, for every path with a key strictly below it
/// in `map`, the number of such keys, and no other key.
#[derive(Debug)]
pub(crate) struct PathMap<V> {
    map: HashMap<String, V>,
    below: HashMap<String, usize>,
}

impl<V> Default for PathMap<V> {
    fn default() -> Self {
        PathMap {
            map: HashMap::new(),
            below: HashMap::new(),
        }
    }
}

impl<V> PathMap<V> {
    /// The value for `path`.
    pub(crate) fn get(&self, path: &str) -> Option<&V> {
        self.map.get(path)
    }

    /// The value for `path`, to change in place.
    pub(crate) fn get_mut(&mut self, path: &str) -> Option<&mut V> {
        self.map.get_mut(path)
    }

    /// The value for `path`, made by `make` first if it has none.
    pub(crate) fn get_or_insert_with(&mut self, path: &str, make: impl FnOnce() -> V) -> &mut V {
        if !self.map.contains_key(path) {
            self.insert(path.to_string(), make());
        }
        self.map.get_mut(path).expect("inserted above")
    }

    /// True if `path` has a value.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, path: &str) -> bool {
        self.map.contains_key(path)
    }

    /// Sets `v` for `path`.
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

    /// Forgets `path` alone and returns its value.
    pub(crate) fn remove(&mut self, path: &str) -> Option<V> {
        let v = self.map.remove(path)?;
        for dir in ancestors(path) {
            if let Some(n) = self.below.get_mut(dir) {
                *n -= 1;
                if *n == 0 {
                    self.below.remove(dir);
                }
            }
        }
        Some(v)
    }

    /// Forgets `path` and everything below it, handing each value to
    /// `gone`, `path`'s first.
    pub(crate) fn remove_subtree(&mut self, path: &str, mut gone: impl FnMut(V)) {
        if let Some(v) = self.remove(path) {
            gone(v);
        }
        if self.below.contains_key(path) {
            let under: Vec<String> = self
                .map
                .keys()
                .filter(|p| is_below(p, path))
                .cloned()
                .collect();
            for p in under {
                if let Some(v) = self.remove(&p) {
                    gone(v);
                }
            }
        }
    }

    /// Hands every value to `keep`, which may change it, and forgets the
    /// paths whose value it refuses.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&mut V) -> bool) {
        self.retain_where(|_| true, keep);
    }

    /// [`Self::retain`] on `path` and every path below it and, if `up`,
    /// every directory above it: the chain a walk to `path` went through.
    /// Only a path with values below it costs a scan of the keys.
    pub(crate) fn retain_subtree(
        &mut self,
        path: &str,
        up: bool,
        mut keep: impl FnMut(&mut V) -> bool,
    ) {
        if self.below.contains_key(path) {
            self.retain_where(|p| is_below(p, path), &mut keep);
        }
        for p in std::iter::once(path).chain(ancestors(path).take_while(|_| up)) {
            if self.map.get_mut(p).is_some_and(|v| !keep(v)) {
                self.remove(p);
            }
        }
    }

    fn retain_where(&mut self, pick: impl Fn(&str) -> bool, mut keep: impl FnMut(&mut V) -> bool) {
        let gone: Vec<String> = self
            .map
            .iter_mut()
            .filter(|(p, _)| pick(p))
            .filter_map(|(p, v)| (!keep(v)).then(|| p.clone()))
            .collect();
        for p in gone {
            self.remove(&p);
        }
    }

    /// Number of paths with a value.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Paths with a value strictly below `dir`, at any depth.
    pub(crate) fn descendants(&self, dir: &str) -> usize {
        self.below.get(dir).copied().unwrap_or(0)
    }

    /// Number of paths with a value below them: the keys of the counts
    /// [`Self::descendants`] reads, none of them zero.
    pub(crate) fn counted_dirs(&self) -> usize {
        self.below.len()
    }
}

/// The directories strictly above `path`, deepest first: `/a/b/c` gives
/// `/a/b`, `/a` and `/`; `/` gives none.
fn ancestors(path: &str) -> impl Iterator<Item = &str> {
    let mut p = path;
    std::iter::from_fn(move || {
        let cut = p.rfind('/').filter(|_| p != "/")?;
        p = if cut == 0 { "/" } else { &p[..cut] };
        Some(p)
    })
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
        let mut c = PathMap::default();
        for p in ["/", "/a", "/a/x", "/a/x/y", "/ab", "/ab/y", "/a-b", "/b"] {
            c.insert(p.to_string(), 7u8);
        }
        let mut gone = 0;
        c.remove_subtree("/a", |_| gone += 1);
        assert_eq!(gone, 3);
        for gone in ["/a", "/a/x", "/a/x/y"] {
            assert!(!c.contains_key(gone), "{gone}");
        }
        for kept in ["/", "/ab", "/ab/y", "/a-b", "/b"] {
            assert!(c.contains_key(kept), "{kept}");
        }
        // Counts: `/` has four below it, `/ab` one; nothing else.
        assert_eq!((c.descendants("/"), c.descendants("/ab")), (4, 1));
        assert_eq!(c.counted_dirs(), 2);
        c.remove_subtree("/", drop);
        assert_eq!((c.len(), c.counted_dirs()), (0, 0));
    }

    #[test]
    fn counts_follow_inserts_removes_and_retains() {
        let mut c = PathMap::default();
        c.insert("/a/b/c".to_string(), 1u8);
        c.insert("/a/b/c".to_string(), 2u8);
        assert_eq!(c.get("/a/b/c"), Some(&2));
        assert_eq!(c.counted_dirs(), 3, "/, /a and /a/b");
        c.insert("/a".to_string(), 3u8);
        c.retain(|v| *v != 2);
        assert_eq!((c.len(), c.counted_dirs()), (1, 1));
        assert_eq!(c.remove("/a"), Some(3));
        assert_eq!(c.remove("/a"), None);
        assert_eq!(c.counted_dirs(), 0);
    }
}
