"""Registry mutation through the generic registry's methods (ABFT009
must fire on both calls)."""

from multiprocessing import Process

from generic_registry import SCHEME_REGISTRY


class _LocalScheme:
    pass


SCHEME_REGISTRY.register(_LocalScheme, "local")  # MARK:ABFT009


def _generic_worker_main(queue):
    SCHEME_REGISTRY.register(_LocalScheme, "per-worker")  # MARK:ABFT009
    queue.put("ready")


def start_generic(queue):
    process = Process(target=_generic_worker_main, args=(queue,))
    process.start()
    return process
