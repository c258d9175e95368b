//! Guest-specific protection faults reported by the NIC (paper §3.3).

use std::fmt;

use cdna_mem::PageId;

use crate::ContextId;

/// Why the NIC refused to use a descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A descriptor's sequence number was not the expected successor —
    /// the driver replayed a stale descriptor or overran the producer
    /// index past what the hypervisor enqueued.
    StaleSequence {
        /// Sequence number the NIC expected next.
        expected: u32,
        /// Sequence number actually found in the slot.
        found: u32,
    },
    /// The producer index pointed at a ring slot nothing was ever
    /// written to.
    EmptySlot {
        /// The monotonic ring index read.
        index: u64,
    },
    /// The per-context IOMMU blocked a DMA to an unmapped page
    /// ([`crate::DmaPolicy::Iommu`] enforcement, paper §5.3).
    IommuViolation {
        /// The unmapped page the DMA touched.
        page: PageId,
    },
    /// The out-of-band DMA shadow checker ([`crate::shadow::DmaShadow`])
    /// observed the live system diverging from its mirrored
    /// page/sequence state. `code` is the checker's stable violation
    /// code ([`crate::shadow::ViolationKind::code`]).
    ShadowViolation {
        /// Stable violation-class code from the shadow checker.
        code: u32,
    },
}

impl FaultKind {
    /// Stable numeric code for the fault class, mirroring the
    /// `cdna-check` `CDNA0xx` scheme: the code identifies the variant,
    /// never its payload, so trace/report consumers and fuzz coverage
    /// keys can match on it instead of on `Debug` strings (which change
    /// whenever a payload field is added).
    ///
    /// Codes are append-only: `1` stale sequence, `2` empty slot, `3`
    /// IOMMU violation, `4` shadow-checker divergence. A shadow
    /// violation's inner class code is available via
    /// [`FaultKind::shadow_code`].
    pub fn code(&self) -> u32 {
        match self {
            FaultKind::StaleSequence { .. } => 1,
            FaultKind::EmptySlot { .. } => 2,
            FaultKind::IommuViolation { .. } => 3,
            FaultKind::ShadowViolation { .. } => 4,
        }
    }

    /// Stable kebab-case name for the fault class (same contract as
    /// [`FaultKind::code`]).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::StaleSequence { .. } => "stale-sequence",
            FaultKind::EmptySlot { .. } => "empty-slot",
            FaultKind::IommuViolation { .. } => "iommu-violation",
            FaultKind::ShadowViolation { .. } => "shadow-violation",
        }
    }

    /// For [`FaultKind::ShadowViolation`], the shadow checker's stable
    /// violation-class code ([`crate::shadow::ViolationKind::code`]);
    /// `None` for device-reported faults.
    pub fn shadow_code(&self) -> Option<u32> {
        match self {
            FaultKind::ShadowViolation { code } => Some(*code),
            FaultKind::StaleSequence { .. }
            | FaultKind::EmptySlot { .. }
            | FaultKind::IommuViolation { .. } => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StaleSequence { expected, found } => {
                write!(
                    f,
                    "stale descriptor: expected seq {expected}, found {found}"
                )
            }
            FaultKind::EmptySlot { index } => {
                write!(f, "producer overran into never-written slot {index}")
            }
            FaultKind::IommuViolation { page } => {
                write!(f, "IOMMU blocked DMA to unmapped {page:?}")
            }
            FaultKind::ShadowViolation { code } => {
                write!(f, "shadow checker divergence (violation code {code})")
            }
        }
    }
}

/// A protection fault scoped to the offending guest's context.
///
/// Faults are reported to the hypervisor through the privileged context;
/// other guests' traffic is unaffected — the fault isolates exactly one
/// context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtectionFault {
    /// The context whose descriptor stream faulted.
    pub ctx: ContextId,
    /// What went wrong.
    pub kind: FaultKind,
}

impl fmt::Display for ProtectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protection fault on {}: {}", self.ctx, self.kind)
    }
}

impl std::error::Error for ProtectionFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let fault = ProtectionFault {
            ctx: ContextId(5),
            kind: FaultKind::StaleSequence {
                expected: 12,
                found: 4,
            },
        };
        let s = fault.to_string();
        assert!(s.contains("ctx5"));
        assert!(s.contains("expected seq 12"));
        assert!(s.contains("found 4"));
    }

    #[test]
    fn empty_slot_display() {
        let k = FaultKind::EmptySlot { index: 99 };
        assert!(k.to_string().contains("99"));
    }

    #[test]
    fn codes_and_names_are_stable_and_distinct() {
        let kinds = [
            FaultKind::StaleSequence {
                expected: 1,
                found: 2,
            },
            FaultKind::EmptySlot { index: 0 },
            FaultKind::IommuViolation { page: PageId(7) },
            FaultKind::ShadowViolation { code: 5 },
        ];
        // Pinned: these codes are a wire format for reports and fuzz
        // coverage keys — changing them breaks replay corpora.
        assert_eq!(kinds.map(|k| k.code()), [1, 2, 3, 4]);
        assert_eq!(
            kinds.map(|k| k.name()),
            [
                "stale-sequence",
                "empty-slot",
                "iommu-violation",
                "shadow-violation"
            ]
        );
        // The code identifies the variant, not the payload.
        let other = FaultKind::StaleSequence {
            expected: 9,
            found: 0,
        };
        assert_eq!(other.code(), kinds[0].code());
        assert_eq!(kinds[3].shadow_code(), Some(5));
        assert_eq!(kinds[0].shadow_code(), None);
    }
}
