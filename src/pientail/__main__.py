"""``python -m pientail``: the command-line interface of ``pientail.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
