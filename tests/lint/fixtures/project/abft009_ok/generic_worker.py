"""A worker that calls ``register`` on something that is not a registry
(ABFT009 stays quiet)."""

import atexit
from multiprocessing import Process


def _flush():
    pass


def _generic_worker_main(queue):
    atexit.register(_flush)  # ok: not a *_REGISTRY object
    queue.put("ready")


def start_generic(queue):
    process = Process(target=_generic_worker_main, args=(queue,))
    process.start()
    return process
