"""`python -m fedcharge`: the same command line as the `fedcharge` script."""

from .cli import main

if __name__ == "__main__":
    main()
