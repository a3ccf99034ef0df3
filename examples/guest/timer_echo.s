; timer_echo.s — program the timer for periodic interrupts; the ISR prints
; a tick mark, five ticks then halt.
;   tlsim run examples/guest/timer_echo.s
start:
    li   sp, 0x3c000
    li   r1, 0xF0002000    ; timer
    movi r2, 500
    stw  r2, [r1 + 4]      ; PERIOD
    la   r2, isr
    stw  r2, [r1 + 12]     ; HANDLER
    movi r2, 7             ; enable | irq | auto-reload
    stw  r2, [r1 + 0]
    movi r6, 0             ; tick count
    sti
idle:
    wfi                    ; sleep until the next tick
    jmp  idle

isr:
    li   r9, 0xF0003000
    movi r5, '*'
    stw  r5, [r9]
    addi r6, r6, 1
    movi r7, 5
    beq  r6, r7, finish
    addi sp, sp, 4         ; pop error code
    iret
finish:
    movi r5, '\n'
    stw  r5, [r9]
    halt
