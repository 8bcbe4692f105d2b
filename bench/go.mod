module dnsttl/bench

go 1.22

require dnsttl v0.0.0

replace dnsttl => ../
