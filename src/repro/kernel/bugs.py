"""Catalog of the injected kernel bugs (paper Table 4).

The paper reports 24 previously-unknown bugs found only with the
KernelGPT-generated specifications.  The reproduction injects one synthetic
bug per Table 4 row into the corresponding synthetic driver/socket: each bug
is a crash predicate attached to a specific operation (see
:class:`repro.kernel.ops.BugTrigger`) that can only fire when the fuzzer
knows the correct device name, command value and argument structure — i.e.
when it is driven by a correct specification.

The catalog below records the metadata the paper reports per bug (crash
title, confirmation/fix status, CVE) plus where in the synthetic kernel the
bug lives, so that Table 4 can be regenerated by checking which campaign
configurations actually reached each predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class KernelBug:
    """Metadata for one injected bug.

    Attributes
    ----------
    bug_id:
        Stable identifier used by :class:`~repro.kernel.ops.BugTrigger`.
    title:
        Crash title as it would appear in a syzbot-style report.
    crash_type:
        Sanitizer/oops class (KASAN UAF, warning, memory leak, ...).
    subsystem:
        The synthetic driver or socket the bug lives in.
    handler:
        Operation-handler name whose spec is required to reach the bug.
    confirmed / fixed / cve:
        Status metadata mirroring Table 4.
    """

    bug_id: str
    title: str
    crash_type: str
    subsystem: str
    handler: str
    confirmed: bool = True
    fixed: bool = False
    cve: str = ""

    @property
    def has_cve(self) -> bool:
        return bool(self.cve)


#: The Table 4 bug catalog.  Handler names refer to operation handlers defined
#: by the synthetic kernel (``repro.kernel.extra_drivers`` / ``table6_sockets``).
TABLE4_BUGS: tuple[KernelBug, ...] = (
    KernelBug("dm-kmalloc-ctl-ioctl", "kmalloc bug in ctl_ioctl", "kmalloc-size", "device-mapper", "dm_ctl_fops", True, True, "CVE-2024-23851"),
    KernelBug("dm-kmalloc-table-create", "kmalloc bug in dm_table_create", "kmalloc-size", "device-mapper", "dm_ctl_fops", True, True, "CVE-2023-52429"),
    KernelBug("cec-uaf-queue-msg", "KASAN: slab-use-after-free Read in cec_queue_msg_fh", "use-after-free", "cec", "cec_devnode_fops", True, True, "CVE-2024-23848"),
    KernelBug("cec-odebug-transmit", "ODEBUG bug in cec_transmit_msg_fh", "odebug", "cec", "cec_devnode_fops", True, True, ""),
    KernelBug("cec-warning-cancel", "WARNING in cec_data_cancel", "warning", "cec", "cec_devnode_fops", True, True, ""),
    KernelBug("cec-hang-claim-log-addrs", "INFO: task hung in cec_claim_log_addrs", "hang", "cec", "cec_devnode_fops", True, False, ""),
    KernelBug("cec-gpf-transmit-done", "general protection fault in cec_transmit_done_ts", "general-protection-fault", "cec", "cec_devnode_fops", True, True, ""),
    KernelBug("btrfs-bug-get-root-ref", "kernel BUG in btrfs_get_root_ref", "kernel-bug", "btrfs", "btrfs_ctl_fops_full", True, True, "CVE-2024-23850"),
    KernelBug("btrfs-gpf-update-reloc-root", "general protection fault in btrfs_update_reloc_root", "general-protection-fault", "btrfs", "btrfs_ctl_fops_full", True, False, ""),
    KernelBug("ubi-zero-size-vmalloc", "zero-size vmalloc in ubi_read_volume_table", "vmalloc", "ubi", "ubi_ctrl_fops", True, True, "CVE-2024-25739"),
    KernelBug("rds-oob-cmsg-recv", "UBSAN: array-index-out-of-bounds in rds_cmsg_recv", "out-of-bounds", "rds", "rds_proto_ops", True, True, "CVE-2024-23849"),
    KernelBug("ubi-leak-attach", "memory leak in ubi_attach", "memory-leak", "ubi", "ubi_ctrl_fops", True, False, "CVE-2024-25740"),
    KernelBug("posix-clock-leak-open", "memory leak in posix_clock_open", "memory-leak", "posix-clock", "posix_clock_fops", True, True, "CVE-2024-26655"),
    KernelBug("ipv6-leak-append-data", "memory leak in __ip6_append_data", "memory-leak", "l2tp_ip6", "l2tp_ip6_proto_ops", True, False, ""),
    KernelBug("dvb-deadlock-demux-release", "possible deadlock in dvb_demux_release", "deadlock", "dvb", "dvb_demux_fops", False, False, ""),
    KernelBug("blk-hang-rq-qos-throttle", "INFO: task hung in __rq_qos_throttle", "hang", "block", "ubi_ctrl_fops", False, False, ""),
    KernelBug("usb-warning-ep-queue", "WARNING in usb_ep_queue", "warning", "usb-gadget", "raw_gadget_fops", True, False, "CVE-2024-25741"),
    KernelBug("dvb-leak-dmxdev-add-pid", "memory leak in dvb_dmxdev_add_pid", "memory-leak", "dvb", "dvb_demux_fops", True, False, ""),
    KernelBug("dvb-leak-dvr-do-ioctl", "memory leak in dvb_dvr_do_ioctl", "memory-leak", "dvb", "dvb_dvr_fops", False, False, ""),
    KernelBug("dvb-gpf-vb2-expbuf", "general protection fault in dvb_vb2_expbuf", "general-protection-fault", "dvb", "dvb_dvr_fops", True, True, "CVE-2024-50291"),
    KernelBug("dm-gpf-cleanup-mapped-device", "general protection fault in cleanup_mapped_device", "general-protection-fault", "device-mapper", "dm_ctl_fops", True, True, "CVE-2024-50277"),
    KernelBug("media-warning-vb2-core-reqbufs", "WARNING in vb2_core_reqbufs", "warning", "media", "uvc_queue_fops", True, False, ""),
    KernelBug("usb-corrupted-list-vep-queue", "BUG: corrupted list in vep_queue", "corrupted-list", "usb-gadget", "raw_gadget_fops", True, False, ""),
    KernelBug("media-divide-error-uvc-queue-setup", "divide error in uvc_queue_setup", "divide-error", "media", "uvc_queue_fops", True, False, ""),
)


class BugCatalog:
    """Lookup helper over a collection of :class:`KernelBug` entries."""

    def __init__(self, bugs: tuple[KernelBug, ...] = TABLE4_BUGS):
        self._bugs: dict[str, KernelBug] = {}
        for bug in bugs:
            if bug.bug_id in self._bugs:
                raise ValueError(f"duplicate bug id {bug.bug_id!r}")
            self._bugs[bug.bug_id] = bug

    def get(self, bug_id: str) -> KernelBug:
        return self._bugs[bug_id]

    def __contains__(self, bug_id: str) -> bool:
        return bug_id in self._bugs

    def __len__(self) -> int:
        return len(self._bugs)

    def __iter__(self) -> Iterator[KernelBug]:
        return iter(self._bugs.values())

    def counts(self) -> dict[str, int]:
        """Summary counts matching the bottom row of Table 4."""
        return {
            "total": len(self._bugs),
            "confirmed": sum(1 for bug in self._bugs.values() if bug.confirmed),
            "fixed": sum(1 for bug in self._bugs.values() if bug.fixed),
            "cve": sum(1 for bug in self._bugs.values() if bug.has_cve),
        }


DEFAULT_BUG_CATALOG = BugCatalog()


__all__ = ["KernelBug", "TABLE4_BUGS", "BugCatalog", "DEFAULT_BUG_CATALOG"]
