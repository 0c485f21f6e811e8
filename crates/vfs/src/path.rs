//! Slash-separated path utilities shared by the VFS, the NFS layer, and
//! Kosha's distribution logic.
//!
//! Kosha reasons about paths constantly — the distribution level counts
//! path components below the virtual mount point, and the full path of
//! every virtual handle is recorded in the handle table (Section 4.1.2).
//! Paths here are always absolute, `/`-separated, with no `.`/`..`
//! components after [`normalize`].

use crate::error::VfsError;
use std::borrow::Cow;

/// Maximum length of a single path component, as in NFSv3 implementations.
pub const MAX_NAME: usize = 255;

/// Validates a single directory-entry name: non-empty, no `/`, not `.` or
/// `..`, within [`MAX_NAME`].
pub fn validate_name(name: &str) -> Result<(), VfsError> {
    if name.is_empty() || name == "." || name == ".." {
        return Err(VfsError::Inval);
    }
    if name.len() > MAX_NAME {
        return Err(VfsError::NameTooLong);
    }
    if name.bytes().any(|b| b == b'/' || b == 0) {
        return Err(VfsError::Inval);
    }
    Ok(())
}

/// Splits an absolute path into components, rejecting empty and relative
/// paths. `"/"` yields an empty vector.
pub fn split_path(path: &str) -> Result<Vec<&str>, VfsError> {
    if !path.starts_with('/') {
        return Err(VfsError::Inval);
    }
    let mut out = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                if out.pop().is_none() {
                    return Err(VfsError::Inval);
                }
            }
            c => {
                validate_name(c)?;
                out.push(c);
            }
        }
    }
    Ok(out)
}

/// True if `path` is absolute and already normal: every component a
/// valid name, so no `//`, `.` or `..` and no trailing `/` (except `"/"`
/// itself). [`normalize`] leaves exactly these unchanged.
#[must_use]
pub fn is_normal(path: &str) -> bool {
    path == "/"
        || path
            .strip_prefix('/')
            .is_some_and(|rest| rest.split('/').all(|c| validate_name(c).is_ok()))
}

/// [`normalize`] without the copy when there is nothing to change: an
/// already-normal path comes back borrowed, anything else takes the
/// [`split_path`] route and is rebuilt.
pub fn normalized(path: &str) -> Result<Cow<'_, str>, VfsError> {
    if is_normal(path) {
        return Ok(Cow::Borrowed(path));
    }
    let comps = split_path(path)?;
    if comps.is_empty() {
        return Ok(Cow::Borrowed("/"));
    }
    let mut s = String::with_capacity(path.len());
    for c in comps {
        s.push('/');
        s.push_str(c);
    }
    Ok(Cow::Owned(s))
}

/// Normalizes an absolute path: collapses `//`, resolves `.`/`..`.
pub fn normalize(path: &str) -> Result<String, VfsError> {
    normalized(path).map(Cow::into_owned)
}

/// The components of a normal path, in order, as [`split_path`] returns
/// them but without collecting them: `"/"` has none.
pub fn components(normal: &str) -> impl Iterator<Item = &str> {
    normal.split('/').filter(|c| !c.is_empty())
}

/// Joins a normalized directory path and a child name, in one allocation
/// of the exact size.
#[must_use]
pub fn join_path(dir: &str, name: &str) -> String {
    let dir = if dir == "/" { "" } else { dir };
    let mut path = String::with_capacity(dir.len() + 1 + name.len());
    path.extend([dir, "/", name]);
    path
}

/// Splits a normalized path into `(parent, name)`. Root has no parent.
#[must_use]
pub fn parent_and_name(path: &str) -> Option<(&str, &str)> {
    if path == "/" {
        return None;
    }
    let idx = path.rfind('/')?;
    let parent = if idx == 0 { "/" } else { &path[..idx] };
    Some((parent, &path[idx + 1..]))
}

/// Number of components in a normalized path (`"/"` → 0, `"/a/b"` → 2).
#[must_use]
pub fn depth(path: &str) -> usize {
    if path == "/" {
        0
    } else {
        path.bytes().filter(|&b| b == b'/').count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_normalize() {
        assert_eq!(split_path("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(split_path("/").unwrap(), Vec::<&str>::new());
        assert_eq!(normalize("//a///b/./c").unwrap(), "/a/b/c");
        assert_eq!(normalize("/a/b/../c").unwrap(), "/a/c");
        assert_eq!(normalize("/").unwrap(), "/");
        assert!(split_path("relative/a").is_err());
        assert!(normalize("/..").is_err());
        assert!(normalize("a/b").is_err());
        assert!(normalize(&format!("/{}", "x".repeat(256))).is_err());
    }

    #[test]
    fn a_normal_path_is_borrowed_and_walked_in_place() {
        for path in ["/", "/a", "/a/b/c"] {
            assert!(is_normal(path), "{path}");
            assert!(matches!(normalized(path), Ok(Cow::Borrowed(p)) if p == path));
            let walked: Vec<&str> = components(path).collect();
            assert_eq!(walked, split_path(path).unwrap(), "{path}");
        }
        for path in [
            "", "a", "//a", "/a/", "/a//b", "/./a", "/a/..", "/a/./b", "/a\0b",
        ] {
            assert!(!is_normal(path), "{path:?}");
        }
        assert!(matches!(normalized("/a/./b/"), Ok(Cow::Owned(p)) if p == "/a/b"));
        assert!(matches!(normalized("//"), Ok(p) if p == "/"));
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("ok-name_1.txt").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name(".").is_err());
        assert!(validate_name("..").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(&"x".repeat(256)).is_err());
        assert!(validate_name(&"x".repeat(255)).is_ok());
    }

    #[test]
    fn join_and_parent_round_trip() {
        assert_eq!(join_path("/", "a"), "/a");
        assert_eq!(join_path("/a", "b"), "/a/b");
        assert_eq!(parent_and_name("/a/b"), Some(("/a", "b")));
        assert_eq!(parent_and_name("/a"), Some(("/", "a")));
        assert_eq!(parent_and_name("/"), None);
    }

    #[test]
    fn depth_counts_components() {
        assert_eq!(depth("/"), 0);
        assert_eq!(depth("/a"), 1);
        assert_eq!(depth("/a/b/c"), 3);
    }
}
