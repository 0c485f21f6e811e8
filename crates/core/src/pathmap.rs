//! A map keyed by path that forgets a subtree without a scan.

use std::collections::HashMap;
use std::sync::Arc;

/// Values by path, plus, for every path with entries anywhere below it,
/// how many. A lookup is one hash lookup. Forgetting a path with nothing
/// below it, as an RMDIR does, is one remove and one count update per
/// ancestor; only a path with descendants costs a scan of the keys. It
/// backs koshad's handle table, all it knows about where a path lives,
/// and the mount's directory cache.
///
/// Each value sits in a numbered slot beside its path, which is shared,
/// not copied: [`Self::at`] finds a value and its path by slot number
/// with no hashing, and hands out a path a caller can keep. A number
/// names its slot until the path is forgotten; then it may name the next
/// path inserted.
///
/// Invariant: `below` holds, for every path with a key strictly below it
/// in `map`, the number of such keys, and no other key. `map` and the
/// occupied slots are a bijection.
#[derive(Debug)]
pub(crate) struct PathMap<V> {
    map: HashMap<Arc<str>, usize>,
    /// The values beside their paths; `None` for a number in `free`.
    slots: Vec<Option<(Arc<str>, V)>>,
    free: Vec<usize>,
    below: HashMap<String, usize>,
}

impl<V> Default for PathMap<V> {
    fn default() -> Self {
        PathMap {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            below: HashMap::new(),
        }
    }
}

impl<V> PathMap<V> {
    /// The value for `path`.
    pub(crate) fn get(&self, path: &str) -> Option<&V> {
        Some(self.at(*self.map.get(path)?)?.1)
    }

    /// The value for `path`, to change in place.
    pub(crate) fn get_mut(&mut self, path: &str) -> Option<&mut V> {
        let n = *self.map.get(path)?;
        Some(&mut self.slots[n].as_mut()?.1)
    }

    /// The path and value in slot `n`, if it is occupied.
    pub(crate) fn at(&self, n: usize) -> Option<(&Arc<str>, &V)> {
        let (path, v) = self.slots.get(n)?.as_ref()?;
        Some((path, v))
    }

    /// The slot number and value for `path`, made by `make` first if it
    /// has none.
    pub(crate) fn get_or_insert_with(
        &mut self,
        path: &str,
        make: impl FnOnce() -> V,
    ) -> (usize, &mut V) {
        let n = match self.map.get(path) {
            Some(&n) => n,
            None => self.insert(path, make()),
        };
        (
            n,
            &mut self.slots[n].as_mut().expect("a mapped slot is occupied").1,
        )
    }

    /// True if `path` has a value.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, path: &str) -> bool {
        self.map.contains_key(path)
    }

    /// Sets `v` for `path` and returns its slot number.
    pub(crate) fn insert(&mut self, path: &str, v: V) -> usize {
        if let Some(&n) = self.map.get(path) {
            self.slots[n].as_mut().expect("a mapped slot is occupied").1 = v;
            return n;
        }
        for dir in ancestors(path) {
            match self.below.get_mut(dir) {
                Some(n) => *n += 1,
                None => {
                    self.below.insert(dir.to_string(), 1);
                }
            }
        }
        let path: Arc<str> = Arc::from(path);
        let n = match self.free.pop() {
            Some(n) => n,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.map.insert(Arc::clone(&path), n);
        self.slots[n] = Some((path, v));
        n
    }

    /// Forgets `path` alone and returns its value.
    pub(crate) fn remove(&mut self, path: &str) -> Option<V> {
        let n = self.map.remove(path)?;
        for dir in ancestors(path) {
            if let Some(c) = self.below.get_mut(dir) {
                *c -= 1;
                if *c == 0 {
                    self.below.remove(dir);
                }
            }
        }
        self.free.push(n);
        Some(self.slots[n].take().expect("a mapped slot is occupied").1)
    }

    /// Forgets `path` and everything below it, handing each path and
    /// its value to `gone`, `path`'s first.
    pub(crate) fn remove_subtree(&mut self, path: &str, mut gone: impl FnMut(&str, V)) {
        if let Some(v) = self.remove(path) {
            gone(path, v);
        }
        if self.below.contains_key(path) {
            let under: Vec<Arc<str>> = self
                .map
                .keys()
                .filter(|p| is_below(p, path))
                .cloned()
                .collect();
            for p in under {
                if let Some(v) = self.remove(&p) {
                    gone(&p, v);
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
            if self.get_mut(p).is_some_and(|v| !keep(v)) {
                self.remove(p);
            }
        }
    }

    fn retain_where(&mut self, pick: impl Fn(&str) -> bool, mut keep: impl FnMut(&mut V) -> bool) {
        let gone: Vec<Arc<str>> = self
            .slots
            .iter_mut()
            .flatten()
            .filter(|(p, _)| pick(p))
            .filter_map(|(p, v)| (!keep(v)).then(|| Arc::clone(p)))
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
            c.insert(p, 7u8);
        }
        let mut gone = 0;
        c.remove_subtree("/a", |_, _| gone += 1);
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
        c.remove_subtree("/", |_, _| ());
        assert_eq!((c.len(), c.counted_dirs()), (0, 0));
    }

    #[test]
    fn counts_follow_inserts_removes_and_retains() {
        let mut c = PathMap::default();
        c.insert("/a/b/c", 1u8);
        c.insert("/a/b/c", 2u8);
        assert_eq!(c.get("/a/b/c"), Some(&2));
        assert_eq!(c.counted_dirs(), 3, "/, /a and /a/b");
        c.insert("/a", 3u8);
        c.retain(|v| *v != 2);
        assert_eq!((c.len(), c.counted_dirs()), (1, 1));
        assert_eq!(c.remove("/a"), Some(3));
        assert_eq!(c.remove("/a"), None);
        assert_eq!(c.counted_dirs(), 0);
    }

    #[test]
    fn a_slot_number_names_its_path_until_the_path_goes() {
        let mut c = PathMap::default();
        let a = c.insert("/a", 1u8);
        let b = c.insert("/b", 2u8);
        assert_eq!(c.insert("/a", 3u8), a, "a new value keeps the slot");
        let (path, v) = c.at(a).unwrap();
        assert_eq!((&**path, *v), ("/a", 3));
        assert_eq!(c.get_or_insert_with("/b", || unreachable!()), (b, &mut 2));
        assert_eq!(c.remove("/a"), Some(3));
        assert_eq!((c.at(a), c.get("/a")), (None, None));
        // The freed number is the next path's.
        assert_eq!(c.get_or_insert_with("/c", || 4).0, a);
        assert_eq!(c.at(a).map(|(p, v)| (&**p, *v)), Some(("/c", 4)));
        c.remove_subtree("/", |_, _| ());
        assert_eq!((c.at(a), c.at(b), c.len()), (None, None, 0));
    }
}
