"""Virtual-GPU radix sort of Morton keys (paper future work), as a model.

The paper's conclusions list "the acceleration of the setup phase using
GPU-accelerated sorting and tree construction" as the next step.  A
least-significant-digit radix sort of 64-bit Morton keys is bandwidth
bound: each pass streams the keys and an index payload through global
memory.  Its cost follows from the digit width alone, so that is all this
module holds; ``benchmarks/bench_ablation_future_work.py`` prices the
passes under the device model against a single-core comparison sort.
"""

__all__ = ["RADIX_BITS"]

#: Digit width per pass: 8 bits -> 8 passes over 64-bit Morton keys.
RADIX_BITS = 8
