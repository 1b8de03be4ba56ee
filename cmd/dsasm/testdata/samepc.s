# Two labels name one PC (as occupied: and hrec: do in the go kernel);
# dsasm -d must print both, in name order, on every run.
        .text
        li   r1, 3
loop:   addi r1, r1, -1
        bne  r1, zero, skip
        b    done
skip:
again:  b    loop
done:   halt
