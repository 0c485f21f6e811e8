//! Property tests: arbitrary operation sequences preserve the store's
//! accounting and structural invariants, and never change bytes the
//! store has lent out.

use bytes::Bytes;
use kosha_vfs::{ExportKind, FileId, FileType, SetAttr, Vfs, VfsError};
use proptest::prelude::*;
use std::collections::HashMap;

/// A random filesystem operation over a small namespace.
#[derive(Debug, Clone)]
enum Op {
    Create {
        dir: u8,
        name: u8,
    },
    Mkdir {
        dir: u8,
        name: u8,
    },
    Write {
        dir: u8,
        name: u8,
        offset: u16,
        len: u16,
    },
    Truncate {
        dir: u8,
        name: u8,
        size: u16,
    },
    Remove {
        dir: u8,
        name: u8,
    },
    Rmdir {
        dir: u8,
        name: u8,
    },
    Rename {
        sdir: u8,
        sname: u8,
        ddir: u8,
        dname: u8,
    },
    Symlink {
        dir: u8,
        name: u8,
    },
    /// `write_bytes` of a buffer the store may adopt: the whole of its
    /// owner when `lead` is 0, else a piece `lead` bytes into a larger one.
    WriteView {
        dir: u8,
        name: u8,
        offset: u16,
        len: u16,
        lead: u8,
    },
    /// Takes a view and holds it to the end of the run.
    Read {
        dir: u8,
        name: u8,
        offset: u16,
        count: u16,
    },
    /// Takes every file body under a directory and holds them.
    Export {
        dir: u8,
    },
    RemoveTree {
        dir: u8,
        name: u8,
    },
    Purge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Op::Create { dir, name }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Op::Mkdir { dir, name }),
        (any::<u8>(), any::<u8>(), any::<u16>(), 0u16..2048).prop_map(
            |(dir, name, offset, len)| Op::Write {
                dir,
                name,
                offset,
                len
            }
        ),
        (any::<u8>(), any::<u8>(), any::<u16>()).prop_map(|(dir, name, size)| Op::Truncate {
            dir,
            name,
            size
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Op::Remove { dir, name }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Op::Rmdir { dir, name }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(
            |(sdir, sname, ddir, dname)| Op::Rename {
                sdir,
                sname,
                ddir,
                dname
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Op::Symlink { dir, name }),
        (any::<u8>(), any::<u8>(), 0u16..3, 0u16..2048, 0u8..3).prop_map(
            |(dir, name, at, len, lead)| Op::WriteView {
                dir,
                name,
                // Mostly at 0, where a write can cover the whole file.
                offset: at * 700,
                len,
                lead
            }
        ),
        (any::<u8>(), any::<u8>(), 0u16..4096, any::<u16>()).prop_map(
            |(dir, name, offset, count)| Op::Read {
                dir,
                name,
                offset,
                count
            }
        ),
        any::<u8>().prop_map(|dir| Op::Export { dir }),
        (any::<u8>(), any::<u8>()).prop_map(|(dir, name)| Op::RemoveTree { dir, name }),
        // A purge about once in a hundred steps: an arm of its own would
        // leave no file alive long enough to be shared.
        any::<u8>().prop_map(|roll| if roll < 32 {
            Op::Purge
        } else {
            Op::Export { dir: roll }
        }),
    ]
}

const DIRS: [&str; 4] = ["/", "/d0", "/d1", "/d0/d2"];

/// Resolve one of four candidate directories (root plus up to three
/// well-known subdirectories), falling back to root.
fn pick_dir(v: &Vfs, sel: u8) -> FileId {
    let p = DIRS[(sel % 4) as usize];
    v.resolve(p).map(|(id, _)| id).unwrap_or_else(|_| v.root())
}

fn name_for(sel: u8) -> String {
    format!("n{}", sel % 6)
}

/// What the store has lent out, and what every file should hold.
#[derive(Default)]
struct World {
    /// Views taken by `Read` and `Export`, each with a copy of the bytes
    /// it showed when taken.
    lent: Vec<(Bytes, Vec<u8>)>,
    /// Contents by file identity (stable across renames, never reused).
    model: HashMap<FileId, Vec<u8>>,
}

impl World {
    /// Applies `op`, filling what it writes with `fill` so that a buffer
    /// changed under a holder shows.
    fn run(&mut self, v: &mut Vfs, op: &Op, fill: u8) -> Result<(), VfsError> {
        match *op {
            Op::Create { dir, name } => {
                let d = pick_dir(v, dir);
                let (f, _) = v.create(d, &name_for(name), 0o644, 0, 0)?;
                self.model.insert(f, Vec::new());
            }
            Op::Mkdir { dir, name } => {
                let d = pick_dir(v, dir);
                v.mkdir(d, &name_for(name), 0o755, 0, 0)?;
            }
            Op::Write {
                dir,
                name,
                offset,
                len,
            } => {
                let (f, _) = v.lookup(pick_dir(v, dir), &name_for(name))?;
                let data = vec![fill; len as usize];
                let offset = offset % 4096;
                v.write(f, u64::from(offset), &data)?;
                self.wrote(f, offset, &data);
            }
            Op::WriteView {
                dir,
                name,
                offset,
                len,
                lead,
            } => {
                let (f, _) = v.lookup(pick_dir(v, dir), &name_for(name))?;
                let (lead, len) = (lead as usize, len as usize);
                let owner = Bytes::from(vec![fill; lead + len + lead]);
                let data = owner.slice(lead..lead + len);
                v.write_bytes(f, u64::from(offset), &data)?;
                self.wrote(f, offset, &data);
                // The caller's buffer is a holder too.
                self.lent.push((owner.clone(), owner.to_vec()));
            }
            Op::Truncate { dir, name, size } => {
                let (f, _) = v.lookup(pick_dir(v, dir), &name_for(name))?;
                let set = SetAttr {
                    size: Some(u64::from(size)),
                    ..Default::default()
                };
                v.setattr(f, &set)?;
                if let Some(m) = self.model.get_mut(&f) {
                    m.resize(size as usize, 0);
                }
            }
            Op::Remove { dir, name } => v.remove(pick_dir(v, dir), &name_for(name))?,
            Op::Rmdir { dir, name } => v.rmdir(pick_dir(v, dir), &name_for(name))?,
            Op::Rename {
                sdir,
                sname,
                ddir,
                dname,
            } => {
                let s = pick_dir(v, sdir);
                let d = pick_dir(v, ddir);
                v.rename(s, &name_for(sname), d, &name_for(dname))?;
            }
            Op::Symlink { dir, name } => {
                let d = pick_dir(v, dir);
                v.symlink(d, &name_for(name), "target#1", 0o777, 0, 0)?;
            }
            Op::Read {
                dir,
                name,
                offset,
                count,
            } => {
                let (f, _) = v.lookup(pick_dir(v, dir), &name_for(name))?;
                let (view, _) = v.read(f, u64::from(offset), u32::from(count))?;
                self.lent.push((view.clone(), view.to_vec()));
            }
            Op::Export { dir } => {
                let path = DIRS[(dir % 4) as usize];
                for item in v.export_tree(path)? {
                    if let ExportKind::Bytes(b) = item.kind {
                        self.lent.push((b.clone(), b.to_vec()));
                    }
                }
            }
            Op::RemoveTree { dir, name } => {
                v.remove_tree(pick_dir(v, dir), &name_for(name))?;
            }
            Op::Purge => v.purge(),
        }
        Ok(())
    }

    fn wrote(&mut self, f: FileId, offset: u16, data: &[u8]) {
        let Some(m) = self.model.get_mut(&f) else {
            return; // a symlink or directory: the write failed
        };
        let (at, to) = (offset as usize, offset as usize + data.len());
        if m.len() < to {
            m.resize(to, 0);
        }
        m[at..to].copy_from_slice(data);
    }

    /// Nothing lent has changed; every file reads as the model says and
    /// pins no more than its own length.
    fn check(&self, v: &mut Vfs) {
        for (view, taken) in &self.lent {
            assert_eq!(view, taken, "a lent view changed under its holder");
        }
        for item in v.export_tree("/").unwrap() {
            let ExportKind::Bytes(stored) = item.kind else {
                continue;
            };
            assert!(stored.is_whole(), "/{} pins a larger buffer", item.rel_path);
            let (f, _) = v.resolve(&format!("/{}", item.rel_path)).unwrap();
            assert_eq!(stored, self.model[&f], "/{} lost a write", item.rel_path);
            let (read, eof) = v.read(f, 0, u32::MAX).unwrap();
            assert!(eof && read.as_ptr() == stored.as_ptr() && read.len() == stored.len());
        }
    }
}

/// Recomputes used bytes by walking the tree.
fn recount(v: &Vfs) -> u64 {
    let mut total = 0;
    v.walk(|_, attr| {
        if attr.ftype == FileType::Regular {
            total += attr.size;
        }
    });
    total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_matches_tree_after_any_ops(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut v = Vfs::new(64 * 1024);
        // Seed well-known directories so ops have targets.
        let _ = v.mkdir_p("/d0/d2", 0o755);
        let _ = v.mkdir_p("/d1", 0o755);

        let mut world = World::default();
        for (step, op) in ops.iter().enumerate() {
            // Every op may fail with a legal error; none may corrupt state.
            let _ = world.run(&mut v, op, step as u8);

            // INVARIANTS after every operation:
            prop_assert_eq!(v.used_bytes(), recount(&v), "quota accounting drifted");
            prop_assert!(v.used_bytes() <= v.capacity(), "quota exceeded");
        }

        // Every reachable object's path resolves back to itself.
        let mut paths = Vec::new();
        v.walk(|p, _| paths.push(p.to_string()));
        for p in paths {
            let (id, _) = v.resolve(&p).unwrap();
            prop_assert_eq!(v.path_of(id).unwrap(), p);
        }
    }

    /// The aliasing property. Bytes the store hands out by reference
    /// (`read`, `export_tree`) and buffers it adopts (`write_bytes`) have
    /// other holders; after any later sequence of write, truncate,
    /// extend, remove, rename, `remove_tree` and `purge`, every holder
    /// still sees the bytes it had, every file holds what was written to
    /// it, and no file pins more than its own length.
    #[test]
    fn lent_views_never_change_and_files_pin_their_own_length(ops in proptest::collection::vec(op_strategy(), 1..160)) {
        let mut v = Vfs::new(64 * 1024);
        let _ = v.mkdir_p("/d0/d2", 0o755);
        let _ = v.mkdir_p("/d1", 0o755);
        let mut world = World::default();
        for (step, op) in ops.iter().enumerate() {
            let _ = world.run(&mut v, op, step as u8);
            world.check(&mut v);
        }
    }

    #[test]
    fn write_read_round_trip(chunks in proptest::collection::vec((0u16..8192, proptest::collection::vec(any::<u8>(), 1..512)), 1..20)) {
        let mut v = Vfs::new(1 << 22);
        let root = v.root();
        let (f, _) = v.create(root, "blob", 0o644, 0, 0).unwrap();
        let mut model = Vec::new();
        for (offset, data) in &chunks {
            let off = *offset as usize;
            if model.len() < off + data.len() {
                model.resize(off + data.len(), 0);
            }
            model[off..off + data.len()].copy_from_slice(data);
            v.write(f, off as u64, data).unwrap();
        }
        let (got, eof) = v.read(f, 0, model.len() as u32 + 10).unwrap();
        prop_assert!(eof);
        prop_assert_eq!(got, model);
    }
}
