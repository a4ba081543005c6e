"""`python -m sli …` runs the command line, as the `sli` script does."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
