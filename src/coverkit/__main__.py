"""``python -m coverkit``: the command-line interface of :mod:`coverkit.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
