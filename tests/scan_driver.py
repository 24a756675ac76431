"""Reference stepping rule for the cluster and SoC drivers.

The drivers in :mod:`repro.cluster.machine` and :mod:`repro.soc.machine`
pick the next core (cluster) from a heap.  This module keeps the rule
they must reproduce in its plainest form — a full ``min()`` rescan of
every unfinished core and cluster per step — plus a scheduler that logs
which core each step lands on, so tests can compare both drivers step
for step.
"""

from repro.sim.scheduler import Scheduler


class RecordingScheduler(Scheduler):
    """A core scheduler that logs ``(cluster_id, core_id)`` per step."""

    def __init__(self, machine, log: list, on_step=None) -> None:
        super().__init__(machine)
        self.log = log
        self.on_step = on_step

    def step(self) -> bool:
        m = self.m
        self.log.append((m.cluster.cluster_id, m.core_id))
        if self.on_step is not None:
            self.on_step(m)
        return super().step()


def record_steps(cores, log: list, on_step=None) -> None:
    """Swap every core's scheduler for a :class:`RecordingScheduler`."""
    for machine in cores:
        machine.sched = RecordingScheduler(machine, log, on_step)


class ScanCluster:
    """One bound cluster stepped by rescanning all its cores."""

    def __init__(self, cluster) -> None:
        cluster.bind()
        self.cluster = cluster
        self.active = list(cluster.cores)
        self.finished = []

    @property
    def laggard_time(self) -> int:
        if not self.active:
            return max(m.sched.int_time for m in self.cluster.cores)
        return min(m.sched.int_time for m in self.active)

    def step(self) -> bool:
        runnable = [m for m in self.active if not m.sched.barrier_wait]
        if not runnable:
            self.cluster._release_barrier(self.active, self.finished)
            return True
        machine = min(runnable,
                      key=lambda m: (m.sched.int_time, m.core_id))
        if not machine.sched.step():
            self.active.remove(machine)
            self.finished.append(machine)
        return bool(self.active)


def scan_run_cluster(cluster):
    """Run *cluster* to completion under the rescan rule."""
    driver = ScanCluster(cluster)
    while driver.step():
        pass
    return cluster.result()


def scan_run_soc(soc):
    """Run *soc* to completion under the rescan rule."""
    active = [ScanCluster(c) for c in soc.clusters]
    while active:
        driver = min(active, key=lambda d: (d.laggard_time,
                                            d.cluster.cluster_id))
        if not driver.step():
            active.remove(driver)
    return soc.result()
