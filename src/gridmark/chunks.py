"""Run a per-row kernel over fixed row chunks of its inputs on every usable CPU.

The block features of the weight field are one independent row per block:
they depend on that block alone.  features.raw_features therefore splits
its block stacks into CHUNK-row slices and maps a private kernel over
them.  numpy's SVD, elementwise arithmetic and reductions release the GIL,
so the caller and the workers of a thread pool made for the call, one
thread per usable CPU in all, take the chunks from a shared queue; with one
CPU or one chunk the caller runs them as a plain loop.

The result does not depend on the chunking or the number of threads: every
reduction in the kernel runs within one row.  A kernel calls no traced or
pooled function, so each public entry point is entered once, on the
caller's thread, and no worker starts a pool of its own.  numpy's error
state is per thread, so a kernel that must silence a floating-point
warning sets it itself.
"""

import os
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_chunks(kernel, *arrays):
    """kernel(*(a[rows] for a in arrays)) over CHUNK-row slices of equal-length
    arrays; kernel returns a tuple of arrays, one row per input row, which are
    concatenated over the chunks.  Empty inputs make one empty chunk."""
    count = len(arrays[0])
    chunks = [slice(i, i + CHUNK) for i in range(0, max(count, 1), CHUNK)]
    parts = [None] * len(chunks)
    todo = queue.SimpleQueue()
    for k in range(len(chunks)):
        todo.put(k)

    def drain():
        while True:
            try:
                k = todo.get_nowait()
            except queue.Empty:
                return
            parts[k] = kernel(*(a[chunks[k]] for a in arrays))

    # The caller drains the queue too, so it needs one helper fewer than
    # there are CPUs.  What it allocates stays in its own malloc arena,
    # where later work on the caller's thread can reuse it.
    helpers = min(_usable_cpus(), len(chunks)) - 1
    if helpers > 0:
        with ThreadPoolExecutor(max_workers=helpers) as pool:
            futures = [pool.submit(drain) for _ in range(helpers)]
            drain()
            for f in futures:
                f.result()
    else:
        drain()
    return tuple(np.concatenate(column) for column in zip(*parts))
