//! Typed errors for namespace operations.

use crate::frag::Frag;
use crate::inode::InodeId;

/// Errors raised by [`crate::Namespace`] mutations and lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NsError {
    /// The referenced inode does not exist in this namespace.
    NoSuchInode(InodeId),
    /// A file was used where a directory is required.
    NotADirectory(InodeId),
    /// A directory was used where a file is required.
    IsADirectory(InodeId),
    /// Attempted to remove the root.
    RootIsImmovable,
    /// A fragment operation referenced a fragment that is not live in the
    /// directory's current fragment set (stale split request).
    NoSuchFrag {
        /// The directory whose fragment set was addressed.
        dir: InodeId,
        /// The fragment that is no longer (or never was) live.
        frag: Frag,
    },
    /// The namespace's name arena would grow past `u32::MAX` bytes, the
    /// most an inode's `u32` name offset can address.
    NameArenaFull,
}

impl std::fmt::Display for NsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NsError::NoSuchInode(id) => write!(f, "no such inode: {id:?}"),
            NsError::NotADirectory(id) => write!(f, "not a directory: {id:?}"),
            NsError::IsADirectory(id) => write!(f, "is a directory: {id:?}"),
            NsError::RootIsImmovable => write!(f, "the root inode cannot be removed"),
            NsError::NoSuchFrag { dir, frag } => {
                write!(f, "fragment {frag:?} is not live in directory {dir:?}")
            }
            NsError::NameArenaFull => write!(f, "the namespace name arena is full (4 GiB)"),
        }
    }
}

impl std::error::Error for NsError {}

/// Convenience alias used throughout the crate.
pub type NsResult<T> = Result<T, NsError>;
