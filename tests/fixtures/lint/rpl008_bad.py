"""RPL008 bad: a pool constructed inside the package."""

from concurrent.futures import ThreadPoolExecutor


def run_all(tasks):
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(task) for task in tasks]
    return [future.result() for future in futures]
