import gc


def run() -> int:
    """The process entry: the imports run with gc off, then are frozen out of later collections."""
    gc.disable()
    from . import cli
    gc.freeze()
    gc.enable()
    return cli.main()


if __name__ == "__main__":
    raise SystemExit(run())
