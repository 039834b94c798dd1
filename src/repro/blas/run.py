"""The rates every simulated kernel reports over its own counters.

Tables 3 and 4 of the paper give the same ratios for each design:
sustained MFLOPS, percent of peak and memory bandwidth.  A run record
inherits them from :class:`KernelRun` and supplies the counters:
``flops``, ``total_cycles``, ``k``, ``words_read`` and
``words_written``.
"""


class KernelRun:
    """Rates of one simulated kernel run, from its counters."""

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.total_cycles

    @property
    def peak_flops_per_cycle(self) -> float:
        """A multiply and an add per cycle in each of the k lanes."""
        return 2 * self.k

    @property
    def efficiency(self) -> float:
        """Fraction of the peak achieved (the tables' '% of peak')."""
        return self.flops_per_cycle / self.peak_flops_per_cycle

    def sustained_mflops(self, clock_mhz: float) -> float:
        return self.flops_per_cycle * clock_mhz

    def sustained_gflops(self, clock_mhz: float) -> float:
        return self.flops_per_cycle * clock_mhz / 1000.0

    @property
    def io_words(self) -> int:
        """Words moved between memory and the design."""
        return self.words_read + self.words_written

    def words_per_cycle(self) -> float:
        return self.io_words / self.total_cycles

    def memory_bandwidth_gbytes(self, clock_mhz: float,
                                word_bytes: int = 8) -> float:
        """Average memory bandwidth over the run, in GB/s."""
        return (self.io_words * word_bytes * clock_mhz * 1e6
                / self.total_cycles / 1e9)
