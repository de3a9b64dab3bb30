//! Identifier newtypes and request priorities.

/// Identifies a file within one parallel file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Identifies one sub-request in flight. Allocated by the layer that drives
/// the servers; servers treat it as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubReqId(pub u64);

impl std::fmt::Display for SubReqId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subreq#{}", self.0)
    }
}

/// Service priority at a file server.
///
/// The paper's Rebuilder issues its reorganisation traffic as low-priority
/// I/O "to reduce the interference" with foreground requests (§III.F); a
/// server only starts a background sub-request when no normal one is
/// queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Foreground application I/O.
    Normal,
    /// Background reorganisation I/O (Rebuilder flush/fetch).
    Background,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Normal => "normal",
            Priority::Background => "background",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(FileId(3).to_string(), "file#3");
        assert_eq!(SubReqId(9).to_string(), "subreq#9");
        assert_eq!(Priority::Normal.to_string(), "normal");
        assert_eq!(Priority::Background.to_string(), "background");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        assert!(FileId(1) < FileId(2));
        let set: HashSet<SubReqId> = [SubReqId(1), SubReqId(1), SubReqId(2)].into();
        assert_eq!(set.len(), 2);
    }
}
