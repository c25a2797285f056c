from .cli_io import main

if __name__ == "__main__":
    main()
