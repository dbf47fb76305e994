"""A minimal simulated QEMU VM pool.

The paper fuzzes with 4 QEMU instances of 2 vCPUs each; crashes reboot the
affected VM.  The simulated pool tracks those mechanics (acquisitions,
crash-induced reboots) so campaign statistics can report them, without
affecting execution semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VMInstance:
    """One simulated virtual machine."""

    vm_id: int
    cpus: int = 2
    executions: int = 0
    reboots: int = 0


@dataclass
class VMPool:
    """Round-robin pool of simulated VMs."""

    size: int = 4
    cpus_per_vm: int = 2
    instances: list[VMInstance] = field(default_factory=list)
    _next: int = 0

    def __post_init__(self) -> None:
        if not self.instances:
            self.instances = [VMInstance(vm_id=i, cpus=self.cpus_per_vm) for i in range(self.size)]

    def acquire(self) -> VMInstance:
        vm = self.instances[self._next % len(self.instances)]
        self._next += 1
        vm.executions += 1
        return vm

    def release(self, vm: VMInstance, *, crashed: bool = False) -> None:
        if crashed:
            vm.reboots += 1


__all__ = ["VMInstance", "VMPool"]
